//! The nine evaluated workloads and their communication characteristics.

use std::fmt;

/// Workload category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// CNN training (Caffe + NCCL in the paper).
    CnnTraining,
    /// Non-NN multi-GPU HPC code.
    Hpc,
    /// Latency-SLO inference serving (MoCA/ParvaGPU-style tenants):
    /// short recurring requests, typically on MIG slices.
    Inference,
}

/// One of the paper's evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// AlexNet CNN training — bandwidth sensitive.
    AlexNet,
    /// VGG-16 CNN training — the most bandwidth sensitive (≈3× in Fig. 2b).
    Vgg16,
    /// ResNet-50 CNN training — bandwidth sensitive.
    ResNet50,
    /// Inception-v3 CNN training — bandwidth sensitive.
    InceptionV3,
    /// GoogleNet CNN training — bandwidth *insensitive* (small messages).
    GoogleNet,
    /// CaffeNet CNN training — bandwidth *insensitive* (few calls).
    CaffeNet,
    /// Parallel simulated annealing (Cusimann) — negligible inter-GPU I/O.
    Cusimann,
    /// Gaussian Mixture Model training — negligible inter-GPU I/O.
    Gmm,
    /// Jacobi solver — <3% improvement from fast links in the paper.
    Jacobi,
    /// BERT-style transformer serving — latency-SLO inference tenant.
    /// Not part of the paper's nine; excluded from [`Workload::all`].
    BertServing,
    /// ResNet-50 image-classification serving — latency-SLO inference
    /// tenant. Not part of the paper's nine; excluded from
    /// [`Workload::all`].
    ResNetServing,
}

/// Static model of one workload: everything the scheduler and the
/// performance model need to know.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    /// Which workload this is.
    pub workload: Workload,
    /// Category.
    pub class: WorkloadClass,
    /// Per-iteration compute time in seconds (data-parallel: independent of
    /// GPU count, each GPU processes its own batch shard).
    pub compute_seconds: f64,
    /// Bytes of gradient/halo traffic synchronized per iteration.
    pub comm_bytes_per_iter: f64,
    /// Mean collective message size in bytes (sets where on the Fig. 2a
    /// ramp the workload operates — small messages cannot exploit NVLink).
    pub avg_message_bytes: f64,
    /// Collective calls per GPU per iteration, as published in Fig. 5b.
    pub paper_calls_per_iter: u64,
    /// Bandwidth sensitivity annotation (Fig. 5b / §4 for the HPC codes);
    /// the Preserve policy consumes this flag.
    pub bandwidth_sensitive: bool,
    /// Default training iterations for generated jobs — chosen so baseline
    /// 2-GPU NVLink runs land in the paper's 200–1000 s range.
    pub default_iterations: u64,
}

impl Workload {
    /// All nine workloads in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Workload; 9] {
        [
            Workload::Vgg16,
            Workload::AlexNet,
            Workload::ResNet50,
            Workload::InceptionV3,
            Workload::CaffeNet,
            Workload::GoogleNet,
            Workload::Cusimann,
            Workload::Gmm,
            Workload::Jacobi,
        ]
    }

    /// The inference-serving workloads (not part of the paper's nine —
    /// they never appear in [`Workload::all`], so default job mixes and
    /// golden schedules are unchanged by their existence).
    #[must_use]
    pub fn inference() -> [Workload; 2] {
        [Workload::BertServing, Workload::ResNetServing]
    }

    /// The six CNN workloads of Fig. 5.
    #[must_use]
    pub fn cnns() -> [Workload; 6] {
        [
            Workload::Vgg16,
            Workload::AlexNet,
            Workload::ResNet50,
            Workload::InceptionV3,
            Workload::CaffeNet,
            Workload::GoogleNet,
        ]
    }

    /// The workload's calibrated model. Calibration targets are described
    /// in the crate docs; parameters are simulation inputs, not claims
    /// about real Caffe internals.
    #[must_use]
    pub fn model(self) -> WorkloadModel {
        use Workload::*;
        use WorkloadClass::*;
        match self {
            // CNN models. (compute_s, bytes/iter, avg_msg) calibrated to
            // Fig. 2b speedups: VGG 3.0×, AlexNet 2.3×, ResNet/Inception
            // 1.5×, GoogleNet 1.1×, CaffeNet 1.15×.
            Vgg16 => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.0149,
                comm_bytes_per_iter: 3.2e9,
                avg_message_bytes: 2e6,
                paper_calls_per_iter: 160_001,
                bandwidth_sensitive: true,
                default_iterations: 3000,
            },
            AlexNet => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.0554,
                comm_bytes_per_iter: 1.8e9,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 80_001,
                bandwidth_sensitive: true,
                default_iterations: 3000,
            },
            ResNet50 => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.154,
                comm_bytes_per_iter: 0.316e9,
                avg_message_bytes: 2e5,
                paper_calls_per_iter: 1_600_001,
                bandwidth_sensitive: true,
                default_iterations: 1500,
            },
            InceptionV3 => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.193,
                comm_bytes_per_iter: 0.395e9,
                avg_message_bytes: 2e5,
                paper_calls_per_iter: 2_830_001,
                bandwidth_sensitive: true,
                default_iterations: 1200,
            },
            GoogleNet => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.282,
                comm_bytes_per_iter: 0.01e9,
                avg_message_bytes: 2e4,
                paper_calls_per_iter: 640_001,
                bandwidth_sensitive: false,
                default_iterations: 2000,
            },
            CaffeNet => WorkloadModel {
                workload: self,
                class: CnnTraining,
                compute_seconds: 0.303,
                comm_bytes_per_iter: 0.4e9,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 84_936,
                bandwidth_sensitive: false,
                default_iterations: 2000,
            },
            // HPC codes: "negligible inter-GPU communication" (§4, citing
            // the Tartan suite characterization).
            Cusimann => WorkloadModel {
                workload: self,
                class: Hpc,
                compute_seconds: 0.30,
                comm_bytes_per_iter: 1e6,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 1,
                bandwidth_sensitive: false,
                default_iterations: 1500,
            },
            Gmm => WorkloadModel {
                workload: self,
                class: Hpc,
                compute_seconds: 0.25,
                comm_bytes_per_iter: 1e6,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 1,
                bandwidth_sensitive: false,
                default_iterations: 1800,
            },
            Jacobi => WorkloadModel {
                workload: self,
                class: Hpc,
                compute_seconds: 0.35,
                comm_bytes_per_iter: 0.02e9,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 16,
                bandwidth_sensitive: false,
                default_iterations: 1300,
            },
            // Inference tenants: one iteration models one request, so
            // `compute + bytes/EffBW` is the per-request latency the SLO
            // counters compare against. Compute dominates on a healthy
            // slice; the communication term is what co-residency pressure
            // inflates when slices share external links.
            BertServing => WorkloadModel {
                workload: self,
                class: Inference,
                compute_seconds: 0.030,
                comm_bytes_per_iter: 0.2e9,
                avg_message_bytes: 1e6,
                paper_calls_per_iter: 8,
                bandwidth_sensitive: false,
                default_iterations: 2000,
            },
            ResNetServing => WorkloadModel {
                workload: self,
                class: Inference,
                compute_seconds: 0.008,
                comm_bytes_per_iter: 0.05e9,
                avg_message_bytes: 2e5,
                paper_calls_per_iter: 4,
                bandwidth_sensitive: false,
                default_iterations: 4000,
            },
        }
    }

    /// Canonical lowercase name as used in the paper's figures.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlexNet => "alexnet",
            Workload::Vgg16 => "vgg-16",
            Workload::ResNet50 => "resnet-50",
            Workload::InceptionV3 => "inception-v3",
            Workload::GoogleNet => "googlenet",
            Workload::CaffeNet => "caffenet",
            Workload::Cusimann => "cusimann",
            Workload::Gmm => "gmm",
            Workload::Jacobi => "jacobi",
            Workload::BertServing => "bert-serving",
            Workload::ResNetServing => "resnet-serving",
        }
    }

    /// Parses a canonical name (case-insensitive). Covers the paper's
    /// nine plus the inference-serving workloads.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        let lower = name.to_ascii_lowercase();
        Workload::all()
            .into_iter()
            .chain(Workload::inference())
            .find(|w| w.name() == lower)
    }

    /// Shorthand for `self.model().bandwidth_sensitive`.
    #[must_use]
    pub fn is_bandwidth_sensitive(self) -> bool {
        self.model().bandwidth_sensitive
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sensitivity_labels_match_fig5b_and_section4() {
        // Fig. 5b: AlexNet, Inception-v3, VGG-16, Resnet-50 → Yes;
        // CaffeNet, GoogleNet → No. §4: cusimann, gmm, jacobi → No.
        assert!(Workload::AlexNet.is_bandwidth_sensitive());
        assert!(Workload::InceptionV3.is_bandwidth_sensitive());
        assert!(Workload::Vgg16.is_bandwidth_sensitive());
        assert!(Workload::ResNet50.is_bandwidth_sensitive());
        assert!(!Workload::CaffeNet.is_bandwidth_sensitive());
        assert!(!Workload::GoogleNet.is_bandwidth_sensitive());
        assert!(!Workload::Cusimann.is_bandwidth_sensitive());
        assert!(!Workload::Gmm.is_bandwidth_sensitive());
        assert!(!Workload::Jacobi.is_bandwidth_sensitive());
    }

    #[test]
    fn paper_call_counts_match_fig5b() {
        assert_eq!(Workload::AlexNet.model().paper_calls_per_iter, 80_001);
        assert_eq!(
            Workload::InceptionV3.model().paper_calls_per_iter,
            2_830_001
        );
        assert_eq!(Workload::Vgg16.model().paper_calls_per_iter, 160_001);
        assert_eq!(Workload::ResNet50.model().paper_calls_per_iter, 1_600_001);
        assert_eq!(Workload::CaffeNet.model().paper_calls_per_iter, 84_936);
        assert_eq!(Workload::GoogleNet.model().paper_calls_per_iter, 640_001);
    }

    #[test]
    fn fig5a_large_message_networks() {
        // "Alexnet, VGG, Inception, and CaffeNet involve an average
        // communication data size of at least 1e5 bytes."
        for w in [
            Workload::AlexNet,
            Workload::Vgg16,
            Workload::InceptionV3,
            Workload::CaffeNet,
        ] {
            assert!(w.model().avg_message_bytes >= 1e5, "{w}");
        }
        // GoogleNet's average is below 1e5.
        assert!(Workload::GoogleNet.model().avg_message_bytes < 1e5);
    }

    #[test]
    fn name_roundtrip() {
        for w in Workload::all().into_iter().chain(Workload::inference()) {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(Workload::from_name(&w.name().to_uppercase()), Some(w));
        }
        assert_eq!(Workload::from_name("bert"), None);
    }

    #[test]
    fn inference_workloads_stay_out_of_the_paper_mix() {
        // `all()` feeds the default job generator; keeping serving
        // workloads out of it is what preserves the golden schedules.
        for w in Workload::inference() {
            assert!(!Workload::all().contains(&w), "{w}");
            assert_eq!(w.model().class, WorkloadClass::Inference);
        }
        assert!(Workload::all()
            .iter()
            .all(|w| w.model().class != WorkloadClass::Inference));
    }

    #[test]
    fn inference_requests_are_short() {
        // Per-request latency on a healthy 40 GB/s allocation must land
        // in the tens-of-milliseconds regime an SLO can discriminate.
        for w in Workload::inference() {
            let m = w.model();
            let latency_ms = (m.compute_seconds + m.comm_bytes_per_iter / 40e9) * 1e3;
            assert!(
                (1.0..200.0).contains(&latency_ms),
                "{w}: {latency_ms} ms/request"
            );
        }
    }

    #[test]
    fn hpc_codes_have_negligible_traffic() {
        for w in [Workload::Cusimann, Workload::Gmm] {
            let m = w.model();
            // Communication per iteration is ≤ a few MB.
            assert!(m.comm_bytes_per_iter <= 2e6, "{w}");
            assert_eq!(m.class, WorkloadClass::Hpc);
        }
    }

    #[test]
    fn all_models_are_positive_and_finite() {
        for w in Workload::all() {
            let m = w.model();
            assert!(m.compute_seconds > 0.0);
            assert!(m.comm_bytes_per_iter > 0.0);
            assert!(m.avg_message_bytes > 0.0);
            assert!(m.default_iterations > 0);
        }
    }
}
