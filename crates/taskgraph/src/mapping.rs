//! Mapping information graphs onto an FPGA computational field.

use rcs_devices::{performance, ComputeRate, FpgaPart};
use rcs_units::Seconds;

use crate::graph::{GraphError, TaskGraph};

/// A field of FPGAs available to one task (a CCB, a module, or a rack).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaField {
    parts: Vec<FpgaPart>,
}

impl FpgaField {
    /// A field of `count` identical parts.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn uniform(part: FpgaPart, count: usize) -> Self {
        assert!(count > 0, "a field needs at least one FPGA");
        Self {
            parts: vec![part; count],
        }
    }

    /// The member FPGAs.
    #[must_use]
    pub fn parts(&self) -> &[FpgaPart] {
        &self.parts
    }

    /// Number of FPGAs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// `true` if the field has no FPGAs (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total logic cells across the field.
    #[must_use]
    pub fn total_logic_cells(&self) -> u64 {
        self.parts.iter().map(FpgaPart::logic_cells).sum()
    }
}

/// Error raised by the mapper.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The graph itself is malformed.
    Graph(GraphError),
    /// One pipeline copy does not fit even across the whole field.
    DoesNotFit {
        /// Cells required by one copy.
        required_cells: u64,
        /// Cells available in the field.
        available_cells: u64,
    },
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Graph(e) => write!(f, "invalid information graph: {e}"),
            Self::DoesNotFit {
                required_cells,
                available_cells,
            } => write!(
                f,
                "pipeline needs {required_cells} cells, field has {available_cells}"
            ),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Graph(e) => Some(e),
            Self::DoesNotFit { .. } => None,
        }
    }
}

impl From<GraphError> for MapError {
    fn from(e: GraphError) -> Self {
        Self::Graph(e)
    }
}

/// The result of hardwiring a task onto a field.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Pipeline copies instantiated across the field.
    pub copies: usize,
    /// Initiation interval in clock cycles: 1 for a fully spatial
    /// mapping; >1 when hardware operators are time-multiplexed because
    /// the graph exceeds the field ([`map_time_multiplexed`]).
    pub initiation_interval: u32,
    /// Fraction of the field's logic cells in use (feeds the power model's
    /// operating point).
    pub utilization: f64,
    /// Aggregate operation throughput at the slowest member's design
    /// clock.
    pub throughput: ComputeRate,
    /// Pipeline fill latency of one copy.
    pub fill_latency: Seconds,
    /// FPGAs spanned by one pipeline copy (1 when a copy fits a single
    /// chip; >1 when the datapath is partitioned across chips).
    pub chips_per_copy: usize,
}

/// Hardwires `graph` onto `field`, RCS style: the whole information graph
/// becomes one fully pipelined datapath (initiation interval 1), and the
/// datapath is replicated until the field's logic capacity is exhausted.
///
/// When one copy exceeds a single FPGA it is partitioned across
/// neighbouring chips in topological order (each inter-chip hop adds
/// latency but not initiation interval — RCS boards are built around
/// exactly these chip-to-chip links).
///
/// # Errors
///
/// Returns [`MapError::Graph`] for malformed graphs and
/// [`MapError::DoesNotFit`] when even one copy exceeds the whole field.
pub fn map_onto(graph: &TaskGraph, field: &FpgaField) -> Result<Mapping, MapError> {
    let copy_cells = graph.logic_cells();
    let total_cells = field.total_logic_cells();
    if copy_cells > total_cells {
        return Err(MapError::DoesNotFit {
            required_cells: copy_cells,
            available_cells: total_cells,
        });
    }
    // Validate the DAG and get its latency up front.
    let path_cycles = graph.critical_path_cycles()?;

    // How many chips one copy spans (greedy fill of the smallest member).
    let min_chip = field
        .parts()
        .iter()
        .map(|p| p.logic_cells())
        .min()
        .expect("field is non-empty");
    let chips_per_copy = copy_cells.div_ceil(min_chip).max(1) as usize;

    // Replicate to fill, capped so utilization never exceeds 1.
    let copies = (total_cells / copy_cells).max(1) as usize;
    let used_cells = copy_cells * copies as u64;
    let utilization = used_cells as f64 / total_cells as f64;

    // Throughput: every copy retires its op count once per clock of the
    // slowest chip it touches.
    let clock = field
        .parts()
        .iter()
        .map(|p| p.design_clock().hertz())
        .fold(f64::INFINITY, f64::min);
    let throughput =
        ComputeRate::from_ops_per_second(graph.ops_per_initiation() as f64 * copies as f64 * clock);
    // Inter-chip hops add ~8 cycles each to the fill latency.
    let hop_cycles = 8 * (chips_per_copy.saturating_sub(1)) as u32;
    let fill_latency = Seconds::new(f64::from(path_cycles + hop_cycles) / clock);

    Ok(Mapping {
        copies,
        initiation_interval: 1,
        utilization,
        throughput,
        fill_latency,
        chips_per_copy,
    })
}

/// Maps a graph that may exceed the field by **time-multiplexing**: the
/// field is filled with as many operator instances as it holds, and the
/// datapath reuses them over an initiation interval of
/// `II = ceil(required cells / available cells)` cycles — the classic
/// resource-constrained lower bound with a single (logic-cell) resource
/// class. Throughput is `ops · clock / II`; fully spatial graphs reduce to
/// [`map_onto`] exactly.
///
/// This is how an RCS runs a task whose information graph is larger than
/// the machine: the paper's "special-purpose computer device" becomes a
/// partially shared one, trading the II against hardware.
///
/// # Errors
///
/// Returns [`MapError::Graph`] for malformed graphs. Never returns
/// [`MapError::DoesNotFit`]: any valid graph is mappable at some II.
pub fn map_time_multiplexed(graph: &TaskGraph, field: &FpgaField) -> Result<Mapping, MapError> {
    let copy_cells = graph.logic_cells();
    let total_cells = field.total_logic_cells();
    if copy_cells <= total_cells {
        return map_onto(graph, field);
    }
    let path_cycles = graph.critical_path_cycles()?;
    let ii = copy_cells.div_ceil(total_cells).max(1) as u32;

    // every chip participates; the virtual copy spans the whole field
    let chips_per_copy = field.len();
    let clock = field
        .parts()
        .iter()
        .map(|p| p.design_clock().hertz())
        .fold(f64::INFINITY, f64::min);
    let throughput =
        ComputeRate::from_ops_per_second(graph.ops_per_initiation() as f64 * clock / f64::from(ii));
    // multiplexing serializes the schedule: latency stretches by II, plus
    // inter-chip hops. `path_cycles * ii` can far exceed u32 for graphs
    // much larger than the field, so the latency math stays in f64.
    let hop_cycles = 8 * (chips_per_copy.saturating_sub(1)) as u32;
    let fill_cycles = f64::from(path_cycles) * f64::from(ii) + f64::from(hop_cycles);
    let fill_latency = Seconds::new(fill_cycles / clock);
    Ok(Mapping {
        copies: 1,
        initiation_interval: ii,
        utilization: 1.0, // the whole field is instanced with shared operators
        throughput,
        fill_latency,
        chips_per_copy,
    })
}

/// Peak rate of the field by the catalog model, for comparing mapped
/// throughput against the theoretical ceiling.
#[must_use]
pub fn field_peak(field: &FpgaField) -> ComputeRate {
    field.parts().iter().map(performance::peak_ops).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use crate::workloads;

    fn small_graph() -> TaskGraph {
        let mut g = TaskGraph::new("axpb");
        let m = g.add_op(OpKind::Mul);
        let a = g.add_op(OpKind::Add);
        g.add_edge(m, a).unwrap();
        g
    }

    #[test]
    fn small_graph_fills_a_chip_with_copies() {
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 1);
        let m = map_onto(&small_graph(), &field).unwrap();
        assert!(m.copies > 500, "copies = {}", m.copies);
        assert!(m.utilization > 0.95); // small pipelines tile tightly
        assert_eq!(m.chips_per_copy, 1);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        for task in [
            workloads::stencil_5point(),
            workloads::spin_glass_mc(),
            workloads::md_force_pipeline(),
        ] {
            let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 8);
            let m = map_onto(&task, &field).unwrap();
            assert!(
                m.utilization > 0.0 && m.utilization <= 1.0,
                "{}",
                task.name()
            );
        }
    }

    #[test]
    fn mapped_throughput_stays_below_catalog_peak() {
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 8);
        let task = workloads::md_force_pipeline();
        let m = map_onto(&task, &field).unwrap();
        // The catalog peak assumes CELLS_PER_OPERATION cells/op; real
        // graphs average more cells per op, so mapped <= ~peak.
        assert!(
            m.throughput.ops_per_second() < 1.2 * field_peak(&field).ops_per_second(),
            "mapped {} vs peak {}",
            m.throughput,
            field_peak(&field)
        );
    }

    #[test]
    fn bigger_field_means_proportionally_more_throughput() {
        let task = workloads::spin_glass_mc();
        let one = map_onto(
            &task,
            &FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 1),
        )
        .unwrap()
        .throughput
        .ops_per_second();
        let eight = map_onto(
            &task,
            &FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 8),
        )
        .unwrap()
        .throughput
        .ops_per_second();
        let ratio = eight / one;
        assert!((ratio - 8.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn oversized_graph_is_rejected() {
        let mut g = TaskGraph::new("huge");
        let mut prev = g.add_op(OpKind::Div);
        for _ in 0..200 {
            let n = g.add_op(OpKind::Div);
            g.add_edge(prev, n).unwrap();
            prev = n;
        }
        // 201 divs x 2800 cells > one Virtex-6
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xc6vlx240t(), 1);
        assert!(matches!(
            map_onto(&g, &field),
            Err(MapError::DoesNotFit { .. })
        ));
        // but an 8-chip field takes it, split across chips
        let field8 = FpgaField::uniform(rcs_devices::FpgaPart::xc6vlx240t(), 8);
        let m = map_onto(&g, &field8).unwrap();
        assert!(m.chips_per_copy > 1);
    }

    #[test]
    fn fill_latency_reflects_critical_path_and_hops() {
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 8);
        let fast = map_onto(&small_graph(), &field).unwrap();
        let slow = map_onto(&workloads::md_force_pipeline(), &field).unwrap();
        assert!(slow.fill_latency > fast.fill_latency);
    }

    #[test]
    fn time_multiplexing_reduces_to_spatial_when_it_fits() {
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 2);
        let g = workloads::md_force_pipeline();
        let spatial = map_onto(&g, &field).unwrap();
        let multiplexed = map_time_multiplexed(&g, &field).unwrap();
        assert_eq!(spatial, multiplexed);
        assert_eq!(multiplexed.initiation_interval, 1);
    }

    #[test]
    fn oversized_graph_multiplexes_instead_of_failing() {
        let mut g = TaskGraph::new("huge");
        let mut prev = g.add_op(OpKind::Div);
        for _ in 0..200 {
            let n = g.add_op(OpKind::Div);
            g.add_edge(prev, n).unwrap();
            prev = n;
        }
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xc6vlx240t(), 1);
        assert!(matches!(
            map_onto(&g, &field),
            Err(MapError::DoesNotFit { .. })
        ));
        let m = map_time_multiplexed(&g, &field).unwrap();
        assert!(m.initiation_interval > 1, "II = {}", m.initiation_interval);
        // II matches the cell-budget bound
        let expected = g.logic_cells().div_ceil(field.total_logic_cells()) as u32;
        assert_eq!(m.initiation_interval, expected);
        // throughput degrades by exactly II
        let per_clock =
            g.op_count() as f64 * rcs_devices::FpgaPart::xc6vlx240t().design_clock().hertz();
        assert!(
            (m.throughput.ops_per_second() - per_clock / f64::from(m.initiation_interval)).abs()
                < 1.0
        );
    }

    #[test]
    fn more_chips_lower_the_ii() {
        let mut g = TaskGraph::new("big");
        let mut prev = g.add_op(OpKind::Div);
        for _ in 0..300 {
            let n = g.add_op(OpKind::Div);
            g.add_edge(prev, n).unwrap();
            prev = n;
        }
        let one = map_time_multiplexed(
            &g,
            &FpgaField::uniform(rcs_devices::FpgaPart::xc6vlx240t(), 1),
        )
        .unwrap();
        let four = map_time_multiplexed(
            &g,
            &FpgaField::uniform(rcs_devices::FpgaPart::xc6vlx240t(), 4),
        )
        .unwrap();
        assert!(four.initiation_interval < one.initiation_interval);
        assert!(four.throughput.ops_per_second() > one.throughput.ops_per_second());
    }

    #[test]
    fn huge_graph_fill_latency_does_not_wrap_u32() {
        // A 150k-op division chain against a single Virtex-6: the
        // schedule is ~2.7e6 cycles long and the II is ~1.7e3, so the
        // fill cycles (~4.7e9) exceed u32::MAX — the old u32 product
        // wrapped and reported a bogus (far too small) fill latency.
        let mut g = TaskGraph::new("huge-chain");
        let mut prev = g.add_op(OpKind::Div);
        for _ in 0..150_000 {
            let n = g.add_op(OpKind::Div);
            g.add_edge(prev, n).unwrap();
            prev = n;
        }
        let part = rcs_devices::FpgaPart::xc6vlx240t();
        let field = FpgaField::uniform(part.clone(), 1);
        let m = map_time_multiplexed(&g, &field).unwrap();

        let path = f64::from(g.critical_path_cycles().unwrap());
        let ii = f64::from(m.initiation_interval);
        let expected_cycles = path * ii; // one chip: no hop cycles
        assert!(
            expected_cycles > f64::from(u32::MAX),
            "workload must exceed the u32 field to regress the old math \
             (got {expected_cycles})"
        );
        let got_cycles = m.fill_latency.seconds() * part.design_clock().hertz();
        let rel = (got_cycles - expected_cycles).abs() / expected_cycles;
        assert!(
            rel < 1e-12,
            "fill latency wrapped: got {got_cycles} cycles, expected {expected_cycles}"
        );
    }

    #[test]
    fn cyclic_graph_surfaces_graph_error() {
        let mut g = TaskGraph::new("cyc");
        let a = g.add_op(OpKind::Add);
        let b = g.add_op(OpKind::Add);
        g.add_edge(a, b).unwrap();
        g.add_edge(b, a).unwrap();
        let field = FpgaField::uniform(rcs_devices::FpgaPart::xcku095(), 1);
        assert!(matches!(
            map_onto(&g, &field),
            Err(MapError::Graph(GraphError::Cycle))
        ));
    }
}
