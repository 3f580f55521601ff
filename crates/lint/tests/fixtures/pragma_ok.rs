//! Pragma fixture: justified exceptions are silent.

pub fn noted(airtime_us: u32) -> u64 {
    // cmap-lint: allow(unit-cast) — fixture: standalone pragma covers the next code line
    let wide = airtime_us as u64;
    wide * 1_000
}

pub fn trailing(x: f64) -> bool {
    x == 0.5 // cmap-lint: allow(float-cmp) — fixture: exact sentinel comparison is intended
}
