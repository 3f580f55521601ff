//! Resident-set-size probes for scale benchmarking.
//!
//! The scale sweep charts peak resident memory against node count; the
//! only portable-enough source for that is the kernel's own accounting in
//! `/proc/self/status` (`VmHWM` for the high-water mark, `VmRSS` for the
//! current value). Everything here is observability: values feed
//! `RunReport` metrics and never influence simulation state, so the
//! non-Linux fallback is simply `None`.

/// Peak resident set size of this process in bytes (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Current resident set size of this process in bytes (`VmRSS`), or
/// `None` where `/proc` is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Reset the peak-RSS high-water mark to the current RSS, so a later
/// [`peak_rss_bytes`] reads the peak *since this call*. Returns `false`
/// where the kernel interface is unavailable or refuses the write.
pub fn reset_peak() -> bool {
    #[cfg(target_os = "linux")]
    {
        // Writing "5" to clear_refs resets the peak counters (see
        // proc(5)); needs no privileges for the calling process itself.
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

#[cfg(target_os = "linux")]
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    // Format: "VmHWM:     123456 kB".
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(not(target_os = "linux"))]
fn proc_status_kib(_field: &str) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_probes_read_plausible_values() {
        // Current before peak: the high-water mark never falls except at a
        // reset, so a later reading bounds an earlier `VmRSS` whatever the
        // other test threads allocate in between. The reset lives in this
        // test for the same reason — nothing else may lower the mark
        // between the two reads.
        let cur = current_rss_bytes().expect("VmRSS readable on linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on linux");
        // A running test binary holds at least a megabyte and (sanity
        // ceiling) less than a terabyte.
        assert!((1 << 20..1 << 40).contains(&peak), "{peak}");
        assert!((1 << 20..1 << 40).contains(&cur), "{cur}");
        assert!(peak >= cur, "peak {peak} < current {cur}");
        // Some sandboxes deny the clear_refs write; both outcomes are
        // legal, the call just must not panic.
        let _ = reset_peak();
        let cur = current_rss_bytes().expect("VmRSS readable on linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on linux");
        assert!(peak >= cur, "after reset: peak {peak} < current {cur}");
    }
}
