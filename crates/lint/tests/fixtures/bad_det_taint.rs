//! R7 fixture: wall time laundered through a helper into a metric sink.
//! The `Instant::now` call is clippy's, justified by an `#[expect]`; the
//! token layer has no rule for it. Catching the flow requires
//! interprocedural taint through `stamp`'s return and the `started` local.

#[expect(clippy::disallowed_methods, reason = "fixture: justified at the source")]
fn stamp() -> u64 {
    std::time::Instant::now().elapsed().as_secs()
}

fn emit(run_id: u64) {
    let started = stamp();
    metric("run_started_secs", started + run_id);
}

fn metric(_name: &str, _value: u64) {}
