//! Off-chip memory timing model (Ramulator stand-in).
//!
//! Bank-level model with row-buffer locality: a transfer of `bytes` with a
//! given locality factor pays `row_hit_ns` per streaming burst and
//! `row_miss_ns` for each row activation, bounded below by the peak
//! bandwidth. The paper integrates Ramulator; this model keeps the two
//! properties that drive its conclusions — bandwidth ceilings (edge vs
//! server) and the row-locality benefit of the hot/cold table split.

/// A DRAM device profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Latency of a row-buffer hit burst (ns).
    pub row_hit_ns: f64,
    /// Latency of a row activation + access (ns).
    pub row_miss_ns: f64,
    /// Burst size in bytes.
    pub burst_bytes: u64,
    /// Banks operating in parallel.
    pub banks: u32,
}

impl DramModel {
    /// LPDDR4-3200 (AGS-Edge's memory, §6.1).
    pub fn lpddr4() -> Self {
        Self {
            bandwidth_gbps: 25.6,
            row_hit_ns: 10.0,
            row_miss_ns: 45.0,
            burst_bytes: 32,
            banks: 8,
        }
    }

    /// HBM2 (AGS-Server's memory, §6.1).
    pub fn hbm2() -> Self {
        Self {
            bandwidth_gbps: 450.0,
            row_hit_ns: 8.0,
            row_miss_ns: 40.0,
            burst_bytes: 64,
            banks: 128,
        }
    }

    /// Time in nanoseconds to move `bytes` with the given row-buffer hit
    /// rate (`locality` ∈ [0, 1]; 1.0 = perfectly streaming).
    pub fn transfer_ns(&self, bytes: u64, locality: f32) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let locality = locality.clamp(0.0, 1.0) as f64;
        let bursts = bytes.div_ceil(self.burst_bytes) as f64;
        let per_burst = self.row_hit_ns * locality + self.row_miss_ns * (1.0 - locality);
        let latency_bound = bursts * per_burst / self.banks as f64;
        let bandwidth_bound = bytes as f64 / self.bandwidth_gbps; // ns for bytes at GB/s
        latency_bound.max(bandwidth_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_hits_peak_bandwidth() {
        let d = DramModel::hbm2();
        let bytes = 100_000_000u64;
        let eff = bytes as f64 / d.transfer_ns(bytes, 1.0);
        assert!(eff > d.bandwidth_gbps * 0.8, "effective {eff} GB/s");
    }

    #[test]
    fn random_access_is_slower() {
        let d = DramModel::lpddr4();
        let bytes = 10_000_000u64;
        let streaming = d.transfer_ns(bytes, 1.0);
        let random = d.transfer_ns(bytes, 0.0);
        assert!(random > streaming, "random {random} vs streaming {streaming}");
    }

    #[test]
    fn edge_is_slower_than_server() {
        let bytes = 50_000_000u64;
        let edge = DramModel::lpddr4().transfer_ns(bytes, 0.9);
        let server = DramModel::hbm2().transfer_ns(bytes, 0.9);
        assert!(edge > server * 5.0, "edge {edge} server {server}");
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(DramModel::lpddr4().transfer_ns(0, 1.0), 0.0);
    }

    #[test]
    fn locality_is_clamped() {
        let d = DramModel::lpddr4();
        assert_eq!(d.transfer_ns(1024, 2.0), d.transfer_ns(1024, 1.0));
        assert_eq!(d.transfer_ns(1024, -1.0), d.transfer_ns(1024, 0.0));
    }
}
