//! # efm-metnet — metabolic network substrate
//!
//! Everything the Nullspace Algorithm needs *about networks*, independent of
//! the enumeration itself:
//!
//! * [`MetabolicNetwork`] — metabolites, reactions, reversibility, and the
//!   internal-metabolite stoichiometry matrix;
//! * [`parse_network`] — the text format of the paper's reaction listings;
//! * [`compress`] — EFM-preserving network reduction (redundant rows,
//!   blocked reactions, enzyme subsets, LP sign analysis) with exact mode
//!   re-expansion;
//! * [`yeast`] — the S. cerevisiae Networks I and II of Figs. 3–5;
//! * [`examples`] / [`generator`] — small known-answer networks and
//!   random/structured workload generators.

#![warn(missing_docs)]

mod compress;
pub mod examples;
pub mod generator;
pub mod metatool;
mod model;
mod parser;
pub mod stats;
pub mod yeast;

pub use compress::{compress, compress_with, CompressionOptions, CompressionStats, ReducedNetwork};
pub use metatool::{parse_metatool, to_metatool};
pub use model::{format_reaction, MetabolicNetwork, Metabolite, Reaction};
pub use parser::{parse_coefficient, parse_network, parse_reaction_line, ParseError};
