//! One module per paper artifact (table / figure), each returning the
//! [`Table`]s that regenerate it. `run_all` executes the full evaluation.

pub mod ablations;
pub mod fig10_distinct;
pub mod fig11_cardinality;
pub mod fig5_updates;
pub mod fig6_node_capacity;
pub mod fig7_range_knn;
pub mod fig8_gpu_memory;
pub mod fig9_batch_size;
pub mod table4_construction;
pub mod table5_cache;

use crate::config::Config;
use crate::report::Table;

/// An experiment: id, description, runner.
pub struct Experiment {
    /// CLI name ("table4", "fig7", ...).
    pub id: &'static str,
    /// What it regenerates.
    pub describe: &'static str,
    /// Runner producing result tables.
    pub run: fn(&Config) -> Vec<Table>,
}

/// Registry of every experiment, in paper order.
pub const ALL: [Experiment; 10] = [
    Experiment {
        id: "table4",
        describe: "Table 4: index construction cost (time, storage) per method per dataset",
        run: table4_construction::run,
    },
    Experiment {
        id: "table5",
        describe: "Table 5: GTS update time vs cache-table size",
        run: table5_cache::run,
    },
    Experiment {
        id: "fig5",
        describe: "Fig. 5: streaming vs batch update cost per method",
        run: fig5_updates::run,
    },
    Experiment {
        id: "fig6",
        describe: "Fig. 6: GTS throughput vs node capacity Nc (Words, Color)",
        run: fig6_node_capacity::run,
    },
    Experiment {
        id: "fig7",
        describe: "Fig. 7: MRQ/MkNNQ throughput vs r and k, all methods, all datasets",
        run: fig7_range_knn::run,
    },
    Experiment {
        id: "fig8",
        describe: "Fig. 8: GTS throughput vs GPU memory (T-Loc, Color)",
        run: fig8_gpu_memory::run,
    },
    Experiment {
        id: "fig9",
        describe: "Fig. 9: MRQ throughput vs batch size (T-Loc, Color), incl. GPU-Tree deadlock",
        run: fig9_batch_size::run,
    },
    Experiment {
        id: "fig10",
        describe: "Fig. 10: GTS throughput vs distinct-data proportion (T-Loc, Color)",
        run: fig10_distinct::run,
    },
    Experiment {
        id: "fig11",
        describe: "Fig. 11: MkNNQ throughput & memory vs cardinality (T-Loc, Color), incl. OOMs",
        run: fig11_cardinality::run,
    },
    Experiment {
        id: "ablations",
        describe: "A1: GTS design ablations (two-sided pruning, pivots, grouping)",
        run: ablations::run,
    },
];

/// Run every experiment, returning all tables.
pub fn run_all(cfg: &Config) -> Vec<Table> {
    ALL.iter().flat_map(|e| (e.run)(cfg)).collect()
}

/// Find an experiment by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}
