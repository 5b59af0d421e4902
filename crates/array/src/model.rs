//! Table 3 and Equations (2)–(5): the full array delay/energy model.

use crate::components::{self, ComponentInputs, RowInputs};
use crate::{
    ArrayError, ArrayOrganization, DecoderModel, Periphery, RowWires, SenseAmp, Superbuffer,
    TechnologyParams,
};
use sram_cell::CellCharacterization;
use sram_units::{Current, Energy, EnergyDelay, Power, Time, Voltage};

/// How per-bitline energies are multiplied up to a full access.
///
/// The paper's Table 3 counts **one** bitline, sense amplifier and
/// precharge per access, although a read senses `W` columns and the
/// asserted wordline disturbs all `n_c` (see EXPERIMENTS.md,
/// inconsistency 3). Both accountings are provided; the choice cancels
/// in the paper's relative comparisons but matters for absolute energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnergyAccounting {
    /// Table 3 verbatim: one bitline/sense-amp/precharge per access.
    #[default]
    PaperTable3,
    /// Realistic: all `n_c` bitlines develop/precharge, `W` sense
    /// amplifiers fire, `W` write buffers drive.
    PerWord,
}

/// Workload and sensing parameters of the evaluation (paper Section 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayParams {
    /// Array activity factor α: probability of an access per cycle (0.5).
    pub activity: f64,
    /// Read ratio β: fraction of accesses that are reads (0.5).
    pub read_ratio: f64,
    /// Sensing voltage `ΔV_S` (120 mV).
    pub delta_vs: Voltage,
    /// Technology constants (wire geometry, DC-DC overhead).
    pub tech: TechnologyParams,
    /// Bitline-energy multiplication policy.
    pub energy_accounting: EnergyAccounting,
}

impl ArrayParams {
    /// The paper's Section 5 values: `α = β = 0.5`, `ΔV_S = 120 mV`,
    /// 7 nm technology constants, Table 3 energy accounting.
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            activity: 0.5,
            read_ratio: 0.5,
            delta_vs: Voltage::from_millivolts(120.0),
            tech: TechnologyParams::sevennm(),
            energy_accounting: EnergyAccounting::PaperTable3,
        }
    }

    /// Paper defaults but with realistic per-word energy accounting.
    #[must_use]
    pub fn per_word_accounting() -> Self {
        Self {
            energy_accounting: EnergyAccounting::PerWord,
            ..Self::paper_defaults()
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] for probabilities outside
    /// `[0, 1]` or a non-positive sensing voltage.
    pub fn validate(&self) -> Result<(), ArrayError> {
        if !(0.0..=1.0).contains(&self.activity) {
            return Err(ArrayError::InvalidParameter {
                name: "activity",
                constraint: format!("must be in [0, 1], got {}", self.activity),
            });
        }
        if !(0.0..=1.0).contains(&self.read_ratio) {
            return Err(ArrayError::InvalidParameter {
                name: "read_ratio",
                constraint: format!("must be in [0, 1], got {}", self.read_ratio),
            });
        }
        if self.delta_vs.volts() <= 0.0 {
            return Err(ArrayError::InvalidParameter {
                name: "delta_vs",
                constraint: "sensing voltage must be positive".into(),
            });
        }
        Ok(())
    }
}

impl Default for ArrayParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Read/write delay composition (Fig. 7(d) needs the bitline share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBreakdown {
    /// Row path: decoder + first driver stages + wordline charge.
    pub row_path: Time,
    /// Column path: column decoder + driver + COL line (+ BL write drive
    /// for writes).
    pub column_path: Time,
    /// Bitline develop time (`D_BL,rd`) — the component HVT hurts and
    /// negative Gnd repairs.
    pub bitline: Time,
    /// Sense-amplifier resolution (reads) or cell flip (writes).
    pub resolve: Time,
    /// Precharge recovery.
    pub precharge: Time,
}

impl DelayBreakdown {
    /// Total of this access type per Table 3 (max of row/column paths,
    /// then resolve and precharge in series).
    #[must_use]
    pub fn total(&self) -> Time {
        self.row_path.max(self.column_path) + self.resolve + self.precharge
    }
}

/// Switching-energy composition of one access mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Decoders and drivers (row + column).
    pub addressing: Energy,
    /// Wordline charge/discharge.
    pub wordline: Energy,
    /// Bitline develop/drive plus precharge.
    pub bitline: Energy,
    /// Sense amplifier / cell write.
    pub resolve: Energy,
    /// Assist rails (CVDD + CVSS), including DC-DC overhead.
    pub assist_rails: Energy,
}

impl EnergyBreakdown {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.addressing + self.wordline + self.bitline + self.resolve + self.assist_rails
    }
}

/// Evaluated metrics of one array design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrayMetrics {
    /// `D_rd` (Table 3).
    pub read_delay: Time,
    /// `D_wr` (Table 3).
    pub write_delay: Time,
    /// `D_array = max(D_rd, D_wr)` (Eq. 2).
    pub delay: Time,
    /// `E_array,sw` (Eq. 3), before the activity factor.
    pub switching_energy: Energy,
    /// `E_array,leak = M · P_leak,sram · D_array` (Eq. 4).
    pub leakage_energy: Energy,
    /// `E_array = α·E_sw + E_leak` (Eq. 5).
    pub energy: Energy,
    /// Read-delay composition (Fig. 7(d)).
    pub read_breakdown: DelayBreakdown,
    /// Write-delay composition.
    pub write_breakdown: DelayBreakdown,
    /// Read-energy composition.
    pub read_energy_breakdown: EnergyBreakdown,
    /// Write-energy composition.
    pub write_energy_breakdown: EnergyBreakdown,
}

impl ArrayMetrics {
    /// The optimization objective: `E_array × D_array`.
    #[must_use]
    pub fn edp(&self) -> EnergyDelay {
        self.energy * self.delay
    }
}

/// One fully specified array design point, ready to evaluate.
///
/// Construction binds the *architecture* variables (`n_r`/`n_c` in the
/// organization, `N_pre`, `N_wr`), the *circuit* variable `V_SSC`
/// (`V_DDC` and `V_WL` live in the [`CellCharacterization`], pinned to
/// the minimum levels meeting yield — Section 5), and the *device* choice
/// (which cell characterization: LVT or HVT).
#[derive(Debug, Clone)]
pub struct ArrayModel<'a> {
    organization: ArrayOrganization,
    cell: &'a CellCharacterization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    n_pre: u32,
    n_wr: u32,
    vssc: Voltage,
}

impl<'a> ArrayModel<'a> {
    /// Creates a design point with `N_pre = N_wr = 1` and `V_SSC = 0`.
    #[must_use]
    pub fn new(
        organization: ArrayOrganization,
        cell: &'a CellCharacterization,
        periphery: &'a Periphery,
        params: &'a ArrayParams,
    ) -> Self {
        Self {
            organization,
            cell,
            periphery,
            params,
            n_pre: 1,
            n_wr: 1,
            vssc: Voltage::ZERO,
        }
    }

    /// Sets the precharger fin count `N_pre`.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    pub fn with_precharge_fins(mut self, fins: u32) -> Self {
        assert!(fins > 0, "N_pre must be at least 1");
        self.n_pre = fins;
        self
    }

    /// Sets the write-buffer fin count `N_wr`.
    ///
    /// # Panics
    ///
    /// Panics if `fins` is zero.
    #[must_use]
    pub fn with_write_fins(mut self, fins: u32) -> Self {
        assert!(fins > 0, "N_wr must be at least 1");
        self.n_wr = fins;
        self
    }

    /// Sets the negative-Gnd level `V_SSC` (0 disables the assist).
    #[must_use]
    pub fn with_vssc(mut self, vssc: Voltage) -> Self {
        self.vssc = vssc;
        self
    }

    /// The organization under evaluation.
    #[must_use]
    pub fn organization(&self) -> ArrayOrganization {
        self.organization
    }

    /// Evaluates Table 3 and Eqs. (2)–(5): [`prepare`](Self::prepare)
    /// followed by [`PreparedSlice::evaluate`] at this model's fins.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] when the workload
    /// parameters fail validation.
    pub fn evaluate(&self) -> Result<ArrayMetrics, ArrayError> {
        Ok(self.prepare()?.evaluate(self.n_pre, self.n_wr))
    }

    /// Evaluates everything of this model's `(organization, V_SSC)` slice
    /// that does not depend on `N_pre` or `N_wr`: the assist rails, both
    /// wordline rows, the decoders, the row superbuffer, the sense amp,
    /// the cell's read current and write delay, and `P_leak · M`. The
    /// fin counts set on this model are not used; each point of the slice
    /// passes its own to [`PreparedSlice::evaluate`].
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidParameter`] when the workload
    /// parameters fail validation.
    pub fn prepare(&self) -> Result<PreparedSlice<'a>, ArrayError> {
        self.params.validate()?;
        let vdd = self.cell.vdd();
        let vddc = self.cell.vddc();
        let vwl = self.cell.vwl();
        let org = self.organization;
        let periphery = self.periphery;

        // Table 1 and 2 rows that do not depend on the fins; C_COL and C_BL
        // exist only per point (`RowWires::with_fins`).
        let rows = RowWires::new(&org, periphery, &self.params.tech);
        let inputs = RowInputs {
            wires: &rows,
            periphery,
            vdd,
            vddc,
            vssc: self.vssc,
            vwl,
        };
        let cvdd = components::cvdd_rail(&inputs);
        let cvss = components::cvss_rail(&inputs);
        let wl_rd = components::wordline_read(&inputs);
        let wl_wr = components::wordline_write(&inputs);

        // Decoders and the row driver.
        let decoder = DecoderModel::new(periphery);
        let row_dec_d = decoder.delay(org.row_address_bits());
        let row_dec_e = decoder.energy(org.row_address_bits());
        let col_bits = org.column_address_bits();
        let (col_dec_d, col_dec_e) = if org.has_column_mux() {
            (decoder.delay(col_bits), decoder.energy(col_bits))
        } else {
            (Time::ZERO, Energy::ZERO)
        };
        let row_drv = Superbuffer::design(rows.wordline, periphery);
        let row_drv_d = row_drv.first_three_stage_delay();
        let row_drv_e = row_drv.first_three_stage_energy();
        let sense = SenseAmp::new(periphery, self.params.delta_vs);

        // Cell write: delay from the characterization LUT; energy is the
        // storage-node flip (small, approximated as four inverter loads
        // switching through V_DDC).
        let d_write_sram = self.cell.write_delay(vwl);
        let e_write_sram = periphery.c_inverter_input() * 4.0 * vddc * vddc;

        // Assist-rail energies carry the DC-DC conversion overhead
        // (Section 5); the overdriven wordline is likewise converter-fed.
        let dcdc = self.params.tech.dcdc_overhead;
        let assist_rails = (cvdd.energy + cvss.energy) * dcdc;
        let wl_wr_energy = if vwl > vdd {
            wl_wr.energy * dcdc
        } else {
            wl_wr.energy
        };

        // Under per-word accounting, the bitline/precharge terms scale by
        // the number of columns the asserted wordline touches and the
        // resolve terms by the word width; the paper's Table 3 counts
        // each once.
        let (bl_columns, resolve_units, wr_columns) = match self.params.energy_accounting {
            EnergyAccounting::PaperTable3 => (1.0, 1.0, 1.0),
            EnergyAccounting::PerWord => (
                f64::from(org.cols()),
                f64::from(org.word_bits()),
                f64::from(org.word_bits()),
            ),
        };

        Ok(PreparedSlice {
            organization: org,
            periphery,
            params: self.params,
            i_read: self.cell.read_current(self.vssc),
            vdd,
            vddc,
            vssc: self.vssc,
            rows,
            col_dec_d,
            read_row_prefix: row_dec_d + row_drv_d + wl_rd.delay,
            write_row_path: row_dec_d + row_drv_d + wl_wr.delay,
            addressing_prefix: row_dec_e + row_drv_e + col_dec_e,
            sense_delay: sense.delay(),
            d_write_sram,
            wl_rd_energy: wl_rd.energy,
            wl_wr_energy,
            read_resolve_energy: sense.energy() * resolve_units,
            write_resolve_energy: e_write_sram * resolve_units,
            assist_rails,
            bl_columns,
            wr_columns,
            leakage_m: self.cell.leakage() * org.capacity().bits() as f64,
        })
    }
}

/// One `(organization, V_SSC)` slice with every term that does not
/// depend on `(N_pre, N_wr)` already evaluated ([`ArrayModel::prepare`]).
///
/// [`evaluate`](Self::evaluate) then costs only the work that varies
/// with the fins: `C_BL`, `C_COL`, the column superbuffer, the bitline
/// and precharge rows, and Eqs. (2)–(5). It returns the same bits as
/// [`ArrayModel::evaluate`] because the hoisted sums are left-associated
/// prefixes of the per-point sums, each with its operands in their
/// original order.
#[derive(Debug, Clone)]
pub struct PreparedSlice<'a> {
    organization: ArrayOrganization,
    periphery: &'a Periphery,
    params: &'a ArrayParams,
    i_read: Current,
    vdd: Voltage,
    vddc: Voltage,
    vssc: Voltage,
    rows: RowWires,
    col_dec_d: Time,
    /// `row_dec_d + row_drv_d + wl_rd.delay`, before `+ bl_rd.delay`.
    read_row_prefix: Time,
    /// `row_dec_d + row_drv_d + wl_wr.delay`: all of the write row path.
    write_row_path: Time,
    /// `row_dec_e + row_drv_e + col_dec_e`, before `+ col_drv_e`.
    addressing_prefix: Energy,
    sense_delay: Time,
    d_write_sram: Time,
    wl_rd_energy: Energy,
    wl_wr_energy: Energy,
    read_resolve_energy: Energy,
    write_resolve_energy: Energy,
    assist_rails: Energy,
    bl_columns: f64,
    wr_columns: f64,
    /// `P_leak · M`, before `· D_array`.
    leakage_m: Power,
}

impl PreparedSlice<'_> {
    /// Evaluates the design point with `n_pre` precharger and `n_wr`
    /// write-buffer fins.
    ///
    /// # Panics
    ///
    /// Panics if either fin count is zero.
    #[must_use]
    pub fn evaluate(&self, n_pre: u32, n_wr: u32) -> ArrayMetrics {
        assert!(n_pre > 0 && n_wr > 0, "N_pre and N_wr must be at least 1");
        let org = &self.organization;
        let params = self.params;
        let wires = self
            .rows
            .with_fins(org, self.periphery, &params.tech, n_pre, n_wr);
        let inputs = ComponentInputs {
            wires: &wires,
            periphery: self.periphery,
            i_read: self.i_read,
            vdd: self.vdd,
            vddc: self.vddc,
            vssc: self.vssc,
            delta_vs: params.delta_vs,
            n_pre,
            n_wr,
        };

        // Table 2 components that load the bitline or the column line.
        let col = components::column_select(&inputs);
        let bl_rd = components::bitline_read(&inputs);
        let bl_wr = components::bitline_write(&inputs);
        let pre_rd = components::precharge_read(&inputs);
        let pre_wr = components::precharge_write(&inputs);
        let (col_drv_d, col_drv_e) = if org.has_column_mux() {
            let drv = Superbuffer::design(wires.column_select, self.periphery);
            (
                drv.first_three_stage_delay(),
                drv.first_three_stage_energy(),
            )
        } else {
            (Time::ZERO, Energy::ZERO)
        };

        // Table 3: delays.
        let column_path = self.col_dec_d + col_drv_d + col.delay;
        let read_breakdown = DelayBreakdown {
            row_path: self.read_row_prefix + bl_rd.delay,
            column_path,
            bitline: bl_rd.delay,
            resolve: self.sense_delay,
            precharge: pre_rd.delay,
        };
        let write_breakdown = DelayBreakdown {
            row_path: self.write_row_path,
            column_path: column_path + bl_wr.delay,
            bitline: bl_wr.delay,
            resolve: self.d_write_sram,
            precharge: pre_wr.delay,
        };
        let read_delay = read_breakdown.total();
        let write_delay = write_breakdown.total();
        let delay = read_delay.max(write_delay);

        // Table 3: switching energies.
        let addressing = self.addressing_prefix + col_drv_e;
        let read_energy_breakdown = EnergyBreakdown {
            addressing,
            wordline: self.wl_rd_energy,
            bitline: (bl_rd.energy + pre_rd.energy) * self.bl_columns + col.energy,
            resolve: self.read_resolve_energy,
            assist_rails: self.assist_rails,
        };
        let write_energy_breakdown = EnergyBreakdown {
            addressing,
            wordline: self.wl_wr_energy,
            bitline: bl_wr.energy * self.wr_columns + pre_wr.energy * self.bl_columns + col.energy,
            resolve: self.write_resolve_energy,
            assist_rails: Energy::ZERO,
        };
        let e_sw_rd = read_energy_breakdown.total();
        let e_sw_wr = write_energy_breakdown.total();

        // Equations (2)-(5).
        let beta = params.read_ratio;
        let switching_energy = e_sw_rd * beta + e_sw_wr * (1.0 - beta);
        let leakage_energy = self.leakage_m * delay;
        let energy = switching_energy * params.activity + leakage_energy;

        ArrayMetrics {
            read_delay,
            write_delay,
            delay,
            switching_energy,
            leakage_energy,
            energy,
            read_breakdown,
            write_breakdown,
            read_energy_breakdown,
            write_energy_breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::DeviceLibrary;

    struct Fixture {
        hvt: CellCharacterization,
        lvt: CellCharacterization,
        periphery: Periphery,
        params: ArrayParams,
    }

    fn fixture() -> Fixture {
        let lib = DeviceLibrary::sevennm();
        Fixture {
            hvt: CellCharacterization::paper_hvt(lib.nominal_vdd()),
            lvt: CellCharacterization::paper_lvt(lib.nominal_vdd()),
            periphery: Periphery::new(&lib),
            params: ArrayParams::paper_defaults(),
        }
    }

    fn org(rows: u32, cols: u32) -> ArrayOrganization {
        ArrayOrganization::new(rows, cols, 64).unwrap()
    }

    #[test]
    fn metrics_are_physical() {
        let fx = fixture();
        let m = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .with_write_fins(2)
            .evaluate()
            .unwrap();
        assert!(m.delay.picoseconds() > 1.0 && m.delay.nanoseconds() < 10.0);
        assert!(m.energy.joules() > 0.0);
        assert!(m.read_delay <= m.delay && m.write_delay <= m.delay);
        assert_eq!(m.delay, m.read_delay.max(m.write_delay));
    }

    #[test]
    fn negative_gnd_reduces_read_delay() {
        let fx = fixture();
        let base = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .evaluate()
            .unwrap();
        let assisted = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(12)
            .with_vssc(Voltage::from_millivolts(-240.0))
            .evaluate()
            .unwrap();
        assert!(assisted.read_breakdown.bitline < base.read_breakdown.bitline * 0.5);
        assert!(assisted.read_delay < base.read_delay);
        // ... at an energy cost on the assist rails:
        assert!(
            assisted.read_energy_breakdown.assist_rails > base.read_energy_breakdown.assist_rails
        );
    }

    #[test]
    fn hvt_leaks_less_but_reads_slower() {
        let fx = fixture();
        let build = |cell| {
            ArrayModel::new(org(512, 64), cell, &fx.periphery, &fx.params)
                .with_precharge_fins(20)
                .evaluate()
                .unwrap()
        };
        let hvt = build(&fx.hvt);
        let lvt = build(&fx.lvt);
        assert!(hvt.leakage_energy < lvt.leakage_energy * 0.2);
        assert!(hvt.read_breakdown.bitline > lvt.read_breakdown.bitline);
    }

    #[test]
    fn more_rows_slow_the_bitline() {
        let fx = fixture();
        let build = |o| {
            ArrayModel::new(o, &fx.hvt, &fx.periphery, &fx.params)
                .with_precharge_fins(10)
                .evaluate()
                .unwrap()
        };
        let short = build(org(64, 128));
        let tall = build(org(512, 64));
        assert!(tall.read_breakdown.bitline > short.read_breakdown.bitline);
    }

    #[test]
    fn leakage_energy_scales_with_capacity() {
        let fx = fixture();
        let build = |o| {
            ArrayModel::new(o, &fx.lvt, &fx.periphery, &fx.params)
                .evaluate()
                .unwrap()
        };
        let small = build(org(64, 64));
        let large = build(org(512, 256));
        // 32x the bits and a larger delay: strictly more leakage energy.
        assert!(large.leakage_energy > small.leakage_energy * 32.0);
    }

    #[test]
    fn one_prepared_slice_serves_every_point() {
        // Points of one slice share nothing but the slice: evaluating
        // them in any order gives the bits of a fresh model per point.
        let fx = fixture();
        let vssc = Voltage::from_millivolts(-120.0);
        let base = ArrayModel::new(org(256, 256), &fx.lvt, &fx.periphery, &fx.params)
            .with_vssc(vssc)
            .with_precharge_fins(7);
        let slice = base.prepare().unwrap();
        for (n_pre, n_wr) in [(50, 20), (1, 1), (13, 4), (1, 20), (50, 1)] {
            let fresh = base
                .clone()
                .with_precharge_fins(n_pre)
                .with_write_fins(n_wr)
                .evaluate()
                .unwrap();
            assert_eq!(slice.evaluate(n_pre, n_wr), fresh);
        }
    }

    #[test]
    fn invalid_params_are_rejected() {
        let fx = fixture();
        let mut params = fx.params;
        params.activity = 1.5;
        let err = ArrayModel::new(org(64, 64), &fx.hvt, &fx.periphery, &params)
            .evaluate()
            .unwrap_err();
        assert!(matches!(err, ArrayError::InvalidParameter { .. }));
    }

    #[test]
    fn edp_composes() {
        let fx = fixture();
        let m = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .evaluate()
            .unwrap();
        let edp = m.edp();
        assert!((edp / m.delay - m.energy).joules().abs() < 1e-25);
    }

    #[test]
    #[should_panic(expected = "N_pre")]
    fn zero_precharge_fins_panics() {
        let fx = fixture();
        let _ = ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(0);
    }

    #[test]
    fn per_word_accounting_raises_energy_not_delay() {
        let fx = fixture();
        let per_word = ArrayParams::per_word_accounting();
        let paper = ArrayModel::new(org(128, 128), &fx.hvt, &fx.periphery, &fx.params)
            .with_precharge_fins(10)
            .evaluate()
            .unwrap();
        let realistic = ArrayModel::new(org(128, 128), &fx.hvt, &fx.periphery, &per_word)
            .with_precharge_fins(10)
            .evaluate()
            .unwrap();
        assert!(realistic.switching_energy > paper.switching_energy * 5.0);
        assert_eq!(realistic.delay, paper.delay);
        assert_eq!(realistic.read_delay, paper.read_delay);
    }

    #[test]
    fn per_word_accounting_multiplies_bitline_energy_by_columns() {
        // On a mux-free organization (n_c = W) the per-word bitline
        // energy is exactly n_c times the Table 3 single-bitline figure.
        let fx = fixture();
        let per_word = ArrayParams::per_word_accounting();
        let eval = |p: &ArrayParams| {
            ArrayModel::new(org(128, 64), &fx.hvt, &fx.periphery, p)
                .with_precharge_fins(10)
                .evaluate()
                .unwrap()
        };
        let paper = eval(&fx.params);
        let word = eval(&per_word);
        let ratio = word.read_energy_breakdown.bitline / paper.read_energy_breakdown.bitline;
        assert!((ratio - 64.0).abs() < 1e-9, "bitline ratio = {ratio}");
        let sa_ratio = word.read_energy_breakdown.resolve / paper.read_energy_breakdown.resolve;
        assert!(
            (sa_ratio - 64.0).abs() < 1e-9,
            "sense-amp ratio = {sa_ratio}"
        );
    }
}
