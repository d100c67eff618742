//! Deterministic host-side cost model.
//!
//! The simnet ledger charges *network* costs (stack traversal, wire time,
//! propagation) from the calibrated [`simnet::NetworkModel`]s; host-side
//! software costs are normally real wall-clock effects the ledger does
//! not see. The one host cost the modeled ledger does carry is the copy
//! the one-sided bulk plane keeps: draining a received large frame out of
//! the registered region, charged to the receiver per drained byte so
//! the bulk figures stay deterministic and replayable.

/// Modeled host memcpy bandwidth for draining a received large frame out
/// of the registered region into a pooled buffer, ~10 GB/s (a single
/// stream of rep-movs on the paper's Westmere hosts). The one-sided bulk
/// plane charges this to the *receiver's* ledger per drained byte; the
/// sender side is zero-copy and charges nothing beyond the wire.
pub const DRAIN_BYTES_PER_NS: u64 = 10;

/// Modeled cost of copying `len` bytes out of the large region.
pub const fn drain_ns(len: usize) -> u64 {
    (len as u64).div_ceil(DRAIN_BYTES_PER_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_cost_tracks_the_memcpy_model() {
        assert_eq!(drain_ns(0), 0);
        assert_eq!(drain_ns(1), 1);
        assert_eq!(drain_ns(10), 1);
        // 1 MiB at 10 GB/s ≈ 105 µs.
        assert_eq!(drain_ns(1 << 20), 104_858);
    }
}
