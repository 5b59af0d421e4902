//! Golden bits of `ArrayModel::evaluate`.
//!
//! The recorded `f64::to_bits` values pin the model's floating-point
//! results exactly: a refactor of the evaluation (hoisting terms out of
//! the `(N_pre, N_wr)` loop, reordering a sum) must reproduce every bit.
//! A deliberate model change re-records them from the failure message,
//! which names the moved points and prints the whole table in hex.

use sram_array::{ArrayModel, ArrayOrganization, ArrayParams, Periphery};
use sram_cell::CellCharacterization;
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

/// Which cell snapshot a golden point evaluates.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// M2 rails: each assist at its own minimum level.
    HvtM2,
    LvtM2,
    /// M1 rails: one shared `V_DDC = V_WL` boost.
    HvtM1,
    LvtM1,
    /// Cell-supply boost with the wordline left at `Vdd`.
    LvtNoWlBoost,
}

impl Cell {
    fn build(self, lib: &DeviceLibrary) -> CellCharacterization {
        let vdd = lib.nominal_vdd();
        let mv = Voltage::from_millivolts;
        match self {
            Self::HvtM2 => CellCharacterization::paper_hvt(vdd),
            Self::LvtM2 => CellCharacterization::paper_lvt(vdd),
            Self::HvtM1 => {
                CellCharacterization::paper_with_rails(VtFlavor::Hvt, vdd, mv(550.0), mv(550.0))
            }
            Self::LvtM1 => {
                CellCharacterization::paper_with_rails(VtFlavor::Lvt, vdd, mv(640.0), mv(640.0))
            }
            Self::LvtNoWlBoost => {
                CellCharacterization::paper_with_rails(VtFlavor::Lvt, vdd, mv(640.0), vdd)
            }
        }
    }
}

/// `(cell, rows, cols, V_SSC mV, N_pre, N_wr, per-word accounting)`.
type Point = (Cell, u32, u32, f64, u32, u32, bool);

/// Together these cover: no mux and mux, `V_SSC` 0 and −240 mV, M1 and
/// M2 cells, a `V_WL ≤ Vdd` cell, both fin-range ends, and both energy
/// accountings.
const POINTS: [Point; 7] = [
    (Cell::HvtM2, 128, 64, 0.0, 12, 2, false),
    (Cell::HvtM2, 256, 256, -240.0, 50, 20, false),
    (Cell::LvtM1, 64, 128, 0.0, 1, 1, true),
    (Cell::HvtM1, 512, 64, 0.0, 25, 3, true),
    (Cell::LvtM2, 1024, 128, -120.0, 37, 7, false),
    (Cell::LvtNoWlBoost, 32, 512, -50.0, 5, 11, true),
    (Cell::HvtM2, 2, 64, -240.0, 1, 20, false),
];

/// `[delay, energy, read_delay, write_delay]` bits, one row per point.
#[rustfmt::skip]
const GOLDEN: [[u64; 4]; 7] = [
    [0x3de1275891d69237, 0x3cee286406c89c37, 0x3de1275891d69237, 0x3dde1f98b574f584],
    [0x3e0ca1eba0fa64d4, 0x3d27014bbb00f8fc, 0x3e0b8e5ce510f28f, 0x3e0ca1eba0fa64d4],
    [0x3df593e28c3873ea, 0x3d303de6d55ef648, 0x3de4833507bc6e96, 0x3df593e28c3873ea],
    [0x3df4667a3c4c991b, 0x3d4d7e06f04bf945, 0x3df4667a3c4c991b, 0x3df179b4576da949],
    [0x3e02985f52848b44, 0x3d441e3a204b7353, 0x3df5e80eceef2dae, 0x3e02985f52848b44],
    [0x3e024e536e85e7ac, 0x3d4a96129282e564, 0x3e0142019ee0eaa7, 0x3e024e536e85e7ac],
    [0x3de260c159c82c5b, 0x3ce5ebf1dcac4ec0, 0x3dd69c9dd6940a12, 0x3de260c159c82c5b],
];

fn evaluate_bits(lib: &DeviceLibrary, periphery: &Periphery, point: Point) -> [u64; 4] {
    let (cell, rows, cols, vssc_mv, n_pre, n_wr, per_word) = point;
    let cell = cell.build(lib);
    let params = if per_word {
        ArrayParams::per_word_accounting()
    } else {
        ArrayParams::paper_defaults()
    };
    let org = ArrayOrganization::new(rows, cols, 64).unwrap();
    let m = ArrayModel::new(org, &cell, periphery, &params)
        .with_precharge_fins(n_pre)
        .with_write_fins(n_wr)
        .with_vssc(Voltage::from_millivolts(vssc_mv))
        .evaluate()
        .unwrap();
    [
        m.delay.seconds().to_bits(),
        m.energy.joules().to_bits(),
        m.read_delay.seconds().to_bits(),
        m.write_delay.seconds().to_bits(),
    ]
}

#[test]
fn evaluate_reproduces_recorded_bits() {
    let lib = DeviceLibrary::sevennm();
    let periphery = Periphery::new(&lib);
    let actual: Vec<[u64; 4]> = POINTS
        .iter()
        .map(|&p| evaluate_bits(&lib, &periphery, p))
        .collect();
    let moved: Vec<&Point> = POINTS
        .iter()
        .zip(&actual)
        .zip(&GOLDEN)
        .filter(|((_, row), golden)| row != golden)
        .map(|((point, _), _)| point)
        .collect();
    assert!(
        moved.is_empty(),
        "golden bits moved at {moved:?}; actual table: {actual:#018x?}"
    );
}
