//! The design points of the paper's hardware evaluation.
//!
//! The layerwise figures (10, 12, 13) compare, per array shape
//! (edge / cloud):
//!
//! * **Binary Parallel** and **Binary Serial** with on-chip SRAM;
//! * **Unary-32c / 64c / 128c** — rate-coded uSystolic early-terminated to
//!   32/64/128 multiply cycles — without SRAM;
//! * **uGEMM-H** (256 bipolar multiply cycles) without SRAM.
//!
//! Temporal coding is omitted from those plots ("similar to rate coding
//! without early termination"); it appears in the area (Fig. 11) and
//! accuracy (Fig. 9) studies.

use usystolic_core::{
    ComputingScheme, SystolicConfig, CLOUD_COLS, CLOUD_ROWS, EDGE_COLS, EDGE_ROWS,
};
use usystolic_models::zoo::{alexnet, NamedLayer};
use usystolic_sim::MemoryHierarchy;

/// Edge (Eyeriss 12×14) or cloud (TPU 256×256) array shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayShape {
    /// 12×14 with 192 KB SRAM (when present).
    Edge,
    /// 256×256 with 24 MB SRAM (when present).
    Cloud,
}

impl ArrayShape {
    /// Both shapes, in the paper's order.
    pub const ALL: [ArrayShape; 2] = [ArrayShape::Edge, ArrayShape::Cloud];

    /// The shape's label as used in figure captions.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArrayShape::Edge => "edge",
            ArrayShape::Cloud => "cloud",
        }
    }

    /// The array's `(rows, cols)`.
    #[must_use]
    pub fn grid(&self) -> (usize, usize) {
        match self {
            ArrayShape::Edge => (EDGE_ROWS, EDGE_COLS),
            ArrayShape::Cloud => (CLOUD_ROWS, CLOUD_COLS),
        }
    }

    fn config(&self, scheme: ComputingScheme, bitwidth: u32) -> SystolicConfig {
        match self {
            ArrayShape::Edge => SystolicConfig::edge(scheme, bitwidth),
            ArrayShape::Cloud => SystolicConfig::cloud(scheme, bitwidth),
        }
    }

    /// The shape's with-SRAM memory hierarchy.
    #[must_use]
    pub fn memory_with_sram(&self) -> MemoryHierarchy {
        match self {
            ArrayShape::Edge => MemoryHierarchy::edge_with_sram(),
            ArrayShape::Cloud => MemoryHierarchy::cloud_with_sram(),
        }
    }
}

impl core::fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One named design point: array configuration plus memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// The figure-legend name ("Binary Parallel", "Unary-32c", ...).
    pub name: &'static str,
    /// The array configuration.
    pub config: SystolicConfig,
    /// The memory hierarchy.
    pub memory: MemoryHierarchy,
}

/// The canonical layerwise-figure design set: binary with SRAM, unary
/// without (Section V-B's conclusion applied to Sections V-C..V-G).
///
/// # Panics
///
/// Panics if `bitwidth` is not a supported data width.
#[must_use]
pub fn design_points(shape: ArrayShape, bitwidth: u32) -> Vec<DesignPoint> {
    let sram = shape.memory_with_sram();
    let none = MemoryHierarchy::no_sram();
    vec![
        DesignPoint {
            name: "Binary Parallel",
            config: shape.config(ComputingScheme::BinaryParallel, bitwidth),
            memory: sram,
        },
        DesignPoint {
            name: "Binary Serial",
            config: shape.config(ComputingScheme::BinarySerial, bitwidth),
            memory: sram,
        },
        DesignPoint {
            name: "Unary-32c",
            config: shape
                .config(ComputingScheme::UnaryRate, bitwidth)
                .with_mul_cycles(32)
                .expect("32 cycles is a valid EBT for 8-bit data"),
            memory: none,
        },
        DesignPoint {
            name: "Unary-64c",
            config: shape
                .config(ComputingScheme::UnaryRate, bitwidth)
                .with_mul_cycles(64)
                .expect("64 cycles is a valid EBT"),
            memory: none,
        },
        DesignPoint {
            name: "Unary-128c",
            config: shape
                .config(ComputingScheme::UnaryRate, bitwidth)
                .with_mul_cycles(128)
                .expect("128 cycles is a valid EBT"),
            memory: none,
        },
        DesignPoint {
            name: "uGEMM-H",
            config: shape.config(ComputingScheme::UGemmHybrid, bitwidth),
            memory: none,
        },
    ]
}

/// The 8-bit AlexNet layer set used by every layerwise figure.
#[must_use]
pub fn alexnet_8bit_layers() -> Vec<NamedLayer> {
    alexnet().layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_designs_per_shape() {
        for shape in ArrayShape::ALL {
            let d = design_points(shape, 8);
            assert_eq!(d.len(), 6);
            // Binary designs keep SRAM; unary designs drop it.
            assert!(d[0].memory.has_sram());
            assert!(d[1].memory.has_sram());
            for p in &d[2..] {
                assert!(!p.memory.has_sram(), "{}", p.name);
            }
        }
    }

    #[test]
    fn mac_cycles_match_figure_10_caption() {
        let d = design_points(ArrayShape::Edge, 8);
        let cycles: Vec<u64> = d.iter().map(|p| p.config.mac_cycles()).collect();
        // BP 1; BS 8+1; Unary 32/64/128 + 1; uGEMM-H 256 + 1.
        assert_eq!(cycles, vec![1, 9, 33, 65, 129, 257]);
    }

    #[test]
    fn alexnet_layers_match_figures() {
        let names: Vec<String> = alexnet_8bit_layers().into_iter().map(|l| l.name).collect();
        assert_eq!(
            names,
            ["Conv1", "Conv2", "Conv3", "Conv4", "Conv5", "FC6", "FC7", "FC8"]
        );
    }

    #[test]
    fn shapes_expose_configs() {
        assert_eq!(ArrayShape::Edge.label(), "edge");
        assert_eq!(ArrayShape::Cloud.to_string(), "cloud");
        assert!(ArrayShape::Cloud.memory_with_sram().has_sram());
    }
}
