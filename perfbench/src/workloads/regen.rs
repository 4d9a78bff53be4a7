//! `regen`: one operation is one pass over every experiment of the
//! paper, `exp_all` without printing. The inputs are the paper's fixed
//! experiments, so the seed is not used.

use std::collections::BTreeMap;

use super::{ratio, timed, Config, Op, Report, Tally, Workload};
use crate::fingerprint::{self, Fingerprint};
use crate::layers::core::{self, E17, EXPERIMENTS};
use crate::layers::obs::{self, Registry};
use crate::stats;
use crate::tracer::Tracer;

/// The scope pinning one pass.
const SCOPE: &str = "regen.pass";

/// Set-up, operation and checks of `regen`.
#[derive(Debug)]
pub struct Regen {
    digest: u64,
    /// E17 rows (`Debug`-rendered, so floats compare by their digits)
    /// and table from the experiment itself; built on the first traced pass.
    e17_reference: Option<(Vec<String>, Vec<core::Table>)>,
    tally: Tally,
}

impl Regen {
    fn check(&self, tables: &[core::Table], reg: &Registry, r: &mut Report) {
        let digest = fingerprint::digest_str(&core::render(tables));
        let diffs = if reg.is_enabled() {
            fingerprint::diff(SCOPE, &Fingerprint::of(reg, digest))
        } else if digest == self.digest {
            Vec::new()
        } else {
            vec![format!(
                "{SCOPE} digest: pinned {}, got {digest}",
                self.digest
            )]
        };
        r.attempted += 1;
        r.check((!diffs.is_empty()).then(|| diffs.join("; ")));
    }
}

impl Workload for Regen {
    fn setup(_cfg: &Config) -> Self {
        // The first pass pays every lazy first-touch cost.
        let tables = core::run_all(&obs::enabled());
        std::hint::black_box(tables);
        Self {
            digest: fingerprint::expected(SCOPE).0["digest"],
            e17_reference: None,
            tally: Tally::default(),
        }
    }

    fn op(&mut self, obs: &Registry, r: &mut Report) -> Op {
        let (tables, secs) = timed(|| core::run_all(obs));
        self.check(&tables, obs, r);
        (1.0, secs)
    }

    fn traced_op(&mut self, t: &mut Tracer, r: &mut Report) -> Op {
        let (rows, table) = self
            .e17_reference
            .get_or_insert_with(|| {
                let (rows, table) = core::e17_reference();
                (rows.iter().map(|o| format!("{o:?}")).collect(), table)
            })
            .clone();
        let reg = obs::enabled();
        let mut tables = Vec::new();
        let mut cells = Vec::new();
        let mut e17_at = 0;
        let pass = t.enter("regen.pass");
        for (name, experiment) in EXPERIMENTS {
            let span = t.enter(name);
            if let Some(run) = experiment {
                tables.extend(run(&reg));
            } else {
                e17_at = tables.len();
                for (drill, mut rng) in core::drill_cells() {
                    let cell = t.enter("core.drill_cell");
                    cells.push(core::run_cell(&drill, &mut rng, &reg));
                    t.exit(cell);
                }
            }
            t.exit(span);
        }
        let secs = t.exit(pass) as f64 * 1e-9;

        let cells: Vec<String> = cells.iter().map(|o| format!("{o:?}")).collect();
        if cells != rows {
            r.fail("regen: a cell-by-cell E17 outcome differs from the experiment's".into());
        }
        tables.splice(e17_at..e17_at, table);
        self.check(&tables, &reg, r);
        self.tally.add(&reg);
        (1.0, secs)
    }

    fn verify(&mut self, _r: &mut Report) {
        // Every pass was checked against the pinned fingerprint already.
    }

    fn layers(&self, t: &Tracer, out: &mut BTreeMap<&'static str, f64>) {
        let ms = |name: &str| -> Vec<f64> {
            t.durations(name)
                .iter()
                .map(|&ns| ns as f64 * 1e-6)
                .collect()
        };
        let (pass, e05, e08, e12, e17) = (
            ms("regen.pass"),
            ms("core.e05"),
            ms("core.e08"),
            ms("core.e12"),
            ms(E17),
        );
        let cells = ms("core.drill_cell");
        let per_pass = cells.len() / pass.len().max(1);
        let (mut p50, mut max, mut share, mut other) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, &p) in pass.iter().enumerate() {
            let c = &cells[i * per_pass..(i + 1) * per_pass];
            p50.push(stats::median(c));
            max.push(c.iter().copied().fold(0.0, f64::max));
            share.push(e17[i] / p);
            other.push(p - e05[i] - e08[i] - e12[i] - e17[i]);
        }
        out.insert("core.e05_ms", stats::median(&e05));
        out.insert("core.e08_ms", stats::median(&e08));
        out.insert("core.e12_ms", stats::median(&e12));
        out.insert("core.e17_ms", stats::median(&e17));
        out.insert("core.e17_share", stats::median(&share));
        out.insert("core.drill_cell_ms_p50", stats::median(&p50));
        out.insert("core.drill_cell_ms_max", stats::median(&max));
        out.insert("core.other_exp_ms", stats::median(&other));
        // E12 is the only Monte-Carlo run of the pass that reports trials.
        out.insert(
            "cooling.mc_ns_per_trial",
            ratio(stats::median(&e12) * 1e6, self.tally.per_op("mc.trials")),
        );
        self.tally.report(out);
    }
}

/// The fingerprint of one pass, for `perfbench fingerprints`.
#[must_use]
pub fn fingerprint() -> Fingerprint {
    let reg = obs::enabled();
    let tables = core::run_all(&reg);
    Fingerprint::of(&reg, fingerprint::digest_str(&core::render(&tables)))
}
