//! Registry of the paper's datasets (Table II) and their synthetic stand-ins.
//!
//! The paper evaluates on SNAP, KONECT and UbiCrawler downloads plus R-MAT graphs.
//! The real downloads are unavailable offline and several are far larger than a
//! single machine, so every named dataset maps to a generator configuration that
//! reproduces the *family* of the original (degree-distribution shape, direction,
//! clustering level) at a configurable scale. The README's "Paper figures and
//! tables" section lists each dataset's size in the paper next to its stand-in.
//!
//! Users: the `table3_intersection`, `fig9_small_scale` and `fig10_large_scale`
//! bins, the `cache_tuning` example, and test inputs.

use crate::gen::{BarabasiAlbert, EgoCircles, GraphGenerator, RmatGenerator, UniformRandom};
use crate::CsrGraph;

/// Scale at which stand-ins are generated, as a divisor on the paper's vertex count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetScale {
    /// Tiny graphs for unit tests (hundreds to thousands of vertices).
    Tiny,
    /// Small graphs for fast experiment runs (tens of thousands of vertices).
    Small,
    /// Medium graphs for the headline benchmark runs (hundreds of thousands).
    Medium,
}

impl DatasetScale {
    fn vertex_budget(&self) -> usize {
        match self {
            DatasetScale::Tiny => 2_000,
            DatasetScale::Small => 32_000,
            DatasetScale::Medium => 200_000,
        }
    }
}

/// The named datasets of Table II plus the Facebook-circles graph of Figures 1 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// SNAP com-Orkut: 3 M vertices, 117.2 M undirected edges.
    Orkut,
    /// SNAP LiveJournal (com-LiveJournal): 4 M vertices, 34.7 M undirected edges.
    LiveJournal,
    /// SNAP soc-LiveJournal1: 4.8 M vertices, 69 M directed edges.
    LiveJournal1,
    /// SNAP as-Skitter: 1.7 M vertices, 11.1 M undirected edges.
    Skitter,
    /// UbiCrawler uk-2005 web crawl: 39.5 M vertices, 936.4 M directed edges.
    Uk2005,
    /// KONECT wiki-en link graph: 13.6 M vertices, 437.2 M directed edges.
    WikiEn,
    /// SNAP ego-Facebook (Facebook circles): 4,039 vertices, 88,234 undirected edges.
    FacebookCircles,
    /// Synthetic R-MAT with the paper's parameters; scale/edge-factor as in Table II.
    RmatS21Ef16,
    /// R-MAT scale 23, edge factor 16.
    RmatS23Ef16,
    /// R-MAT scale 30, edge factor 16 (the 130 GiB graph of the large-scale runs).
    RmatS30Ef16,
    /// Uniform-degree baseline used in Figure 4.
    Uniform,
}

impl Dataset {
    /// The six datasets of the small-scale strong-scaling experiments (Figure 9).
    pub fn figure9() -> Vec<Dataset> {
        vec![
            Dataset::RmatS21Ef16,
            Dataset::Orkut,
            Dataset::LiveJournal,
            Dataset::RmatS23Ef16,
            Dataset::Skitter,
            Dataset::LiveJournal1,
        ]
    }

    /// The three datasets of the large-scale experiments (Figure 10).
    pub fn figure10() -> Vec<Dataset> {
        vec![Dataset::RmatS30Ef16, Dataset::Uk2005, Dataset::WikiEn]
    }

    /// Generates the stand-in graph at the requested scale. The result is cleaned
    /// (deduplicated, symmetrized if undirected, low-degree vertices removed) and in
    /// CSR form, ready for partitioning.
    pub fn generate(&self, scale: DatasetScale, seed: u64) -> CsrGraph {
        let budget = scale.vertex_budget();
        match self {
            Dataset::Orkut => {
                // Orkut is the densest social graph (mean degree ~78): high attachment
                // plus closure edges.
                BarabasiAlbert::with_closure(budget, 24, 8)
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::LiveJournal => {
                // LiveJournal is sparser (mean degree ~17).
                BarabasiAlbert::with_closure(budget, 9, 3)
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::LiveJournal1 => {
                let scale_log = log2_budget(budget);
                RmatGenerator::paper_directed(scale_log, 14)
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::Skitter => BarabasiAlbert::with_closure(budget, 6, 2)
                .generate_cleaned(seed)
                .into_csr(),
            Dataset::Uk2005 => {
                let scale_log = log2_budget(budget);
                let mut gen = RmatGenerator::paper_directed(scale_log, 24);
                // Web crawls are less skewed than social networks.
                gen.a = 0.45;
                gen.b = 0.22;
                gen.c = 0.22;
                gen.d = 0.11;
                gen.generate_cleaned(seed).into_csr()
            }
            Dataset::WikiEn => {
                let scale_log = log2_budget(budget);
                RmatGenerator::paper_directed(scale_log, 32)
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::FacebookCircles => {
                // Always generated at its true scale — the original is tiny.
                EgoCircles::facebook_like()
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::RmatS21Ef16 | Dataset::RmatS23Ef16 | Dataset::RmatS30Ef16 => {
                let base = log2_budget(budget);
                // Preserve the relative ordering of the three R-MAT sizes.
                let scale_log = match self {
                    Dataset::RmatS21Ef16 => base,
                    Dataset::RmatS23Ef16 => base + 1,
                    _ => base + 2,
                };
                RmatGenerator::paper(scale_log, 16)
                    .generate_cleaned(seed)
                    .into_csr()
            }
            Dataset::Uniform => UniformRandom::undirected(budget, budget * 16)
                .generate_cleaned(seed)
                .into_csr(),
        }
    }

    /// Short name used in report tables.
    pub fn short_name(&self) -> &'static str {
        match self {
            Dataset::Orkut => "Orkut",
            Dataset::LiveJournal => "LiveJournal",
            Dataset::LiveJournal1 => "LiveJournal1",
            Dataset::Skitter => "Skitter",
            Dataset::Uk2005 => "uk-2005",
            Dataset::WikiEn => "wiki-en",
            Dataset::FacebookCircles => "Facebook circles",
            Dataset::RmatS21Ef16 => "R-MAT S21 EF16",
            Dataset::RmatS23Ef16 => "R-MAT S23 EF16",
            Dataset::RmatS30Ef16 => "R-MAT S30 EF16",
            Dataset::Uniform => "Uniform",
        }
    }
}

fn log2_budget(budget: usize) -> u32 {
    (usize::BITS - 1 - budget.leading_zeros()).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use crate::types::Direction;

    #[test]
    fn figure9_and_10_dataset_counts_match_paper() {
        assert_eq!(Dataset::figure9().len(), 6);
        assert_eq!(Dataset::figure10().len(), 3);
    }

    #[test]
    fn tiny_standins_generate_and_are_clean() {
        for ds in [
            Dataset::Orkut,
            Dataset::LiveJournal,
            Dataset::Skitter,
            Dataset::Uniform,
            Dataset::RmatS21Ef16,
        ] {
            let g = ds.generate(DatasetScale::Tiny, 1);
            assert!(g.vertex_count() > 100, "{ds:?} too small");
            assert!(g.adjacency_lists_sorted());
            assert!(g.adjacency_in_range());
        }
    }

    #[test]
    fn social_standins_are_skewed_uniform_is_not() {
        let orkut = Dataset::Orkut.generate(DatasetScale::Tiny, 2);
        let uniform = Dataset::Uniform.generate(DatasetScale::Tiny, 2);
        let s_orkut = stats::degree_skewness(&orkut.degrees());
        let s_uniform = stats::degree_skewness(&uniform.degrees());
        assert!(
            s_orkut > s_uniform + 0.5,
            "Orkut stand-in ({s_orkut}) must be more skewed than uniform ({s_uniform})"
        );
    }

    #[test]
    fn rmat_sizes_preserve_ordering() {
        let s21 = Dataset::RmatS21Ef16.generate(DatasetScale::Tiny, 3);
        let s23 = Dataset::RmatS23Ef16.generate(DatasetScale::Tiny, 3);
        assert!(s23.vertex_count() > s21.vertex_count());
    }

    #[test]
    fn undirected_standins_are_symmetric() {
        let g = Dataset::LiveJournal.generate(DatasetScale::Tiny, 4);
        assert!(g.is_symmetric());
        let d = Dataset::LiveJournal1.generate(DatasetScale::Tiny, 4);
        assert_eq!(d.direction(), Direction::Directed);
    }

    #[test]
    fn facebook_circles_is_full_scale() {
        let g = Dataset::FacebookCircles.generate(DatasetScale::Tiny, 5);
        // Ignores the scale parameter: the original is already tiny.
        assert!(g.vertex_count() > 2_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::Skitter.generate(DatasetScale::Tiny, 9);
        let b = Dataset::Skitter.generate(DatasetScale::Tiny, 9);
        assert_eq!(a, b);
    }
}
