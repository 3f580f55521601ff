//! Stale-pragma fixture: a well-formed, reasoned allow that suppresses
//! nothing. Dead suppressions rot the audit trail, so the analyzer
//! reports the pragma itself.

// cmap-lint: allow(float-cmp) — fixture: claims a suppression the code below never needs
fn tidy(values: &[u64]) -> u64 {
    values.iter().sum()
}
