//@ path: crates/trace/src/verify.rs
// Diagnostic-and-continue: checked access with graceful fallbacks, plus a
// locally-guaranteed invariant carrying its reason. Test code is exempt.
fn step(slots: &[u64], cursor: Option<usize>) -> u64 {
    let Some(idx) = cursor else {
        return 0;
    };
    let val = slots.get(idx).copied().unwrap_or(0);
    // lint:allow(analyzer-panic): idx was bounds-checked by get() above
    let same = slots.get(idx).copied().expect("just read");
    val.max(same)
}

// A keyword before `[` opens a pattern, a type or an array expression,
// never an index.
fn shapes(w: [u64; 4], xs: &mut [u8]) -> [u64; 2] {
    let [a, b, ..] = w;
    for x in [a, b] {
        xs.fill(x as u8);
    }
    return [a, b];
}

trait Width {}
impl Width for [u8] {}

#[cfg(test)]
mod tests {
    #[test]
    fn harness_may_unwrap() {
        assert_eq!(super::step(&[7], Some(0)), 7);
        let v: Option<u32> = Some(1);
        v.unwrap();
    }
}
