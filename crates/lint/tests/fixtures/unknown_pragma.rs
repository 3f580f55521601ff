//! Unknown-rule fixture: a pragma naming a rule that does not exist — a
//! typo, or a rule whose hazard moved to `clippy.toml` — suppresses
//! nothing, so the analyzer reports the name at the pragma's line.

pub fn finite(x: f64) -> bool {
    // cmap-lint: allow(unit-cats) — fixture: typo for unit-cast
    x.is_finite()
}

pub fn sentinel(x: f64) -> bool {
    // cmap-lint: allow(float-cmp, thread-spawn) — fixture: one live name, one gone to clippy
    x == 0.5
}
