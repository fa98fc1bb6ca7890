//! Known answers. Each pin file holds one line per verdict row:
//! `<request> <row> <cells> [<note>]`, where `cells` has one character
//! per model column. The files are re-derived from the one-shot oracles
//! with `--derive-pins` (see README.md).

use std::collections::BTreeMap;

use crate::workloads::Workload;

pub const MUTANT_MATRIX: &str = include_str!("../pins/mutant-matrix.pins");
pub const SYNTH_SWEEP: &str = include_str!("../pins/synth-sweep.pins");

/// Pinned rows keyed by (request, row), each with its cells and note.
pub struct Pins(BTreeMap<(String, String), (String, String)>);

impl Pins {
    /// The pins of a workload (fig10-check has none: every check must
    /// pass).
    pub fn of(w: Workload) -> Pins {
        let text = match w {
            Workload::Fig10Check => "",
            Workload::MutantMatrix => MUTANT_MATRIX,
            Workload::SynthSweep => SYNTH_SWEEP,
        };
        let mut rows = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
        {
            let mut parts = line.splitn(4, ' ');
            let mut next = || parts.next().unwrap_or_default().to_string();
            let (request, row, cells, note) = (next(), next(), next(), next());
            rows.insert((request, row), (cells, note));
        }
        Pins(rows)
    }

    /// The pinned cells and note of a row.
    pub fn get(&self, request: &str, row: &str) -> Option<(&str, &str)> {
        self.0
            .get(&(request.to_string(), row.to_string()))
            .map(|(c, n)| (c.as_str(), n.as_str()))
    }

    /// Path of a workload's pin file inside the benchmark's directory.
    pub fn path(w: Workload) -> String {
        format!("{}/pins/{}.pins", env!("CARGO_MANIFEST_DIR"), w.name())
    }
}
