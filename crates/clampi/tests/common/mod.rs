//! The read protocol every caller of the cache front runs: probe, fetch on a
//! miss or a bypass, admit a miss's buffer.

use rmatc_clampi::{CacheProbe, CachedWindow};
use rmatc_rma::{Endpoint, Window};
use std::sync::Arc;

/// Reads `len` elements at `offset` on `target` of `window` through `front`,
/// admitting a miss with `score`. Panics if the network read fails.
pub fn read(
    front: &mut CachedWindow<u32>,
    ep: &mut Endpoint,
    window: &Window<u32>,
    (target, offset, len): (usize, usize, usize),
    score: f64,
) -> Arc<[u32]> {
    let fetch = |ep: &mut Endpoint| {
        let mut landing = Vec::new();
        ep.get_into_with_retry(window, target, offset, len, &mut landing)
            .expect("reliable network");
        Arc::from(landing)
    };
    match front.probe(ep, target, offset, len) {
        CacheProbe::Hit(row) => row,
        CacheProbe::Miss => {
            let row = fetch(ep);
            front.admit(ep, target, offset, len, Arc::clone(&row), score);
            row
        }
        CacheProbe::Bypass => fetch(ep),
    }
}
