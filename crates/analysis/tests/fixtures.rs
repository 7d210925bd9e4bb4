//! Fixture tests for `agm-lint`: every rule must fire on a seeded
//! violation (known-bad) and stay silent on the matching clean code and
//! on false-positive bait inside strings, raw strings, and comments
//! (known-good). The final test runs the linter over this workspace
//! itself, pinning the ship-clean invariant the CI step relies on.

use analysis::lint_source;

/// Rules that fired, by id, for `src` at a non-root, non-test path.
fn fired(src: &str) -> Vec<&'static str> {
    fired_at("crates/fixture/src/a.rs", src)
}

fn fired_at(path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(path, src).into_iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

// ---- no-raw-octave-shift -----------------------------------------------

#[test]
fn octave_shift_known_bad() {
    assert_eq!(fired("fn f(a: u32) -> u64 { 1u64 << a }"), ["no-raw-octave-shift"]);
    // Hex/underscore spellings of 1 count too.
    assert_eq!(fired("fn f(a: u32) -> u64 { 0x1 << a }"), ["no-raw-octave-shift"]);
    assert_eq!(fired("fn f(a: u32) -> u64 { 1_u64 << (a + 1) }"), ["no-raw-octave-shift"]);
    // Test modules are NOT exempt: the PR 3 bug lived in assertions.
    assert_eq!(fired("mod tests { fn t(a: u32) -> u64 { 1u64 << a } }"), ["no-raw-octave-shift"]);
}

#[test]
fn octave_shift_known_good() {
    // Literal exponents are compile-checked.
    assert!(fired("fn f() -> u64 { 1u64 << 20 }").is_empty());
    // Non-1 bases are bit twiddling, not radius construction.
    assert!(fired("fn f(a: u32) -> u64 { 0b11 << a }").is_empty());
    // Bait: the pattern inside strings, raw strings, and comments.
    assert!(fired(r##"fn f() { let s = "1u64 << a"; let r = r#"1u64 << b"#; }"##).is_empty());
    assert!(fired("fn f() {} // 1u64 << a\n/* 1u64 << b */").is_empty());
}

// ---- no-nan-unsafe-cmp -------------------------------------------------

#[test]
fn nan_cmp_known_bad() {
    assert_eq!(
        fired("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }"),
        ["no-nan-unsafe-cmp"]
    );
    assert_eq!(
        fired("fn f(a: f64, b: f64) { a.partial_cmp(&b).expect(\"cmp\"); }"),
        ["no-nan-unsafe-cmp"]
    );
}

#[test]
fn nan_cmp_known_good() {
    assert!(fired("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }").is_empty());
    // partial_cmp with a handled None is fine.
    assert!(
        fired("fn f(a: f64, b: f64) { a.partial_cmp(&b).unwrap_or(Ordering::Less); }").is_empty()
    );
    assert!(fired("fn f() { let s = \"partial_cmp(b).unwrap()\"; }").is_empty());
}

// ---- panic-free-serve (decode roots) -----------------------------------

#[test]
fn decode_known_bad() {
    // Any fn named from_wire is a decode root, wherever it lives.
    assert_eq!(fired("fn from_wire(b: &[u8]) -> u8 { b[0] }"), ["panic-free-serve"]);
    assert_eq!(fired("fn from_wire(x: Option<u8>) -> u8 { x.unwrap() }"), ["panic-free-serve"]);
    assert_eq!(fired("fn from_wire(b: &[u8]) -> u8 { panic!(\"bad\") }"), ["panic-free-serve"]);
    // A helper is covered exactly when the decode root reaches it.
    assert_eq!(
        fired("fn from_wire(b: &[u8]) -> u8 { helper(b) }\nfn helper(b: &[u8]) -> u8 { b[7] }"),
        ["panic-free-serve"]
    );
}

#[test]
fn decode_known_good() {
    // Checked access patterns.
    assert!(fired("fn from_wire(b: &[u8]) -> Option<u8> { b.first().copied() }").is_empty());
    assert!(fired("fn from_wire(b: &[u8]) -> Option<&[u8]> { b.get(1..3) }").is_empty());
    // Attribute/macro brackets, array literals, and slice patterns are
    // not indexing.
    assert!(
        fired("#[derive(Debug)]\nfn from_wire() { let a = [1, 2]; let v = vec![3]; }").is_empty()
    );
    assert!(fired("fn from_wire(b: &[u8]) { if let [x, y] = b { use2(x, y); } }").is_empty());
    // Same code not reachable from any root: no findings.
    assert!(fired("fn helper(b: &[u8]) -> u8 { b[0] }").is_empty());
    // `mod tests` is exempt even when it defines a decode-named fn.
    assert!(fired("mod tests { fn from_wire(b: &[u8]) -> u8 { b[0].min(b[1]) } }").is_empty());
}

// ---- panic-free-serve (asserts) ----------------------------------------

/// A path inside a serving crate, where `route` methods root the cones.
const SERVE_FILE: &str = "crates/core/src/a.rs";

#[test]
fn serve_assert_known_bad() {
    // An assert in a route fn, or in a helper the route reaches, panics
    // in release builds too.
    assert_eq!(
        fired_at(SERVE_FILE, "impl R { fn route(&self, a: u32, b: u32) { assert!(a < b); } }"),
        ["panic-free-serve"]
    );
    assert_eq!(
        fired_at(
            SERVE_FILE,
            "impl R { fn route(&self, a: u32, b: u32) { step(a, b) } }
             fn step(a: u32, b: u32) { assert_ne!(a, b, \"no progress\"); }"
        ),
        ["panic-free-serve"]
    );
    assert_eq!(fired("fn from_wire(b: &[u8]) { assert_eq!(b.len(), 8); }"), ["panic-free-serve"]);
}

#[test]
fn serve_assert_known_good() {
    // debug_assert* compiles out of release builds.
    assert!(fired_at(
        SERVE_FILE,
        "impl R { fn route(&self, a: u32) { debug_assert!(a > 0); debug_assert_eq!(a, 1); \
         debug_assert_ne!(a, 2); } }"
    )
    .is_empty());
    // The repair cone keeps its asserts: they are the delta contract.
    assert!(fired_at(
        SERVE_FILE,
        "impl S { fn repair(&mut self, d: &[u32]) { assert!(!d.is_empty(), \"empty delta\"); } }"
    )
    .is_empty());
    // Asserts off every cone stay silent.
    assert!(fired_at(SERVE_FILE, "fn build(a: u32) { assert!(a > 0); }").is_empty());
}

// ---- deterministic-output ----------------------------------------------

#[test]
fn det_ser_known_bad() {
    assert_eq!(
        fired("fn save(&self) { for k in self.map.keys() { w(k); } }"),
        ["deterministic-output"]
    );
    assert_eq!(
        fired("fn to_wire(&self) { let m: HashMap<u32, u32> = mk(); }"),
        ["deterministic-output"]
    );
    assert_eq!(
        fired("fn encode_rows(&self) { for v in self.map.values() { w(v); } }"),
        ["deterministic-output"]
    );
    // The taint follows call edges into helpers of the sink.
    assert_eq!(
        fired("fn save(&self) { emit_rows(); }\nfn emit_rows() { let m: HashSet<u32> = mk(); }"),
        ["deterministic-output"]
    );
}

#[test]
fn det_ser_known_good() {
    // Ordered containers are fine in save paths.
    assert!(fired("fn save(&self) { let m: BTreeMap<u32, u32> = mk(); }").is_empty());
    // Unordered containers outside save cones are fine.
    assert!(fired("fn lookup(&self) { let m: HashMap<u32, u32> = mk(); }").is_empty());
    assert!(fired("fn save(&self) {} // HashMap in a comment").is_empty());
}

// ---- chunk-ordered-merge -----------------------------------------------

#[test]
fn merge_annotation_known_bad() {
    assert_eq!(fired("fn f(d: &[u64]) { d.par_chunks(8); }"), ["chunk-ordered-merge"]);
    // An annotation more than 3 lines above does not count.
    assert_eq!(
        fired("fn f(d: &[u64]) {\n    // merge: too far away\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    d.par_chunks(8);\n}"),
        ["chunk-ordered-merge"]
    );
}

#[test]
fn merge_annotation_known_good() {
    assert!(fired(
        "fn f(d: &[u64]) {\n    // merge: chunk-order concatenation\n    d.par_chunks(8);\n}"
    )
    .is_empty());
    // Same-line trailing annotation.
    assert!(fired("fn f(d: &[u64]) { d.par_chunks(8); } // merge: order-free sum").is_empty());
    // Defining `fn par_chunks(...)` is not a fan-out site.
    assert!(fired("fn par_chunks(n: usize) {}").is_empty());
}

// ---- forbid-unsafe -----------------------------------------------------

#[test]
fn forbid_unsafe_known_bad() {
    assert_eq!(fired("fn f() { unsafe { g() } }"), ["forbid-unsafe"]);
    // A crate root without the attribute is a finding on line 1.
    let f = lint_source("crates/x/src/lib.rs", "fn f() {}\n");
    assert_eq!(f.len(), 1);
    assert_eq!((f[0].rule, f[0].line), ("forbid-unsafe", 1));
}

#[test]
fn forbid_unsafe_known_good() {
    assert!(fired_at("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\nfn f() {}\n").is_empty());
    assert!(fired("fn f() { let s = \"unsafe\"; } // unsafe in comment").is_empty());
    // Non-root modules don't need the attribute.
    assert!(fired("fn f() {}").is_empty());
}

// ---- pragmas -----------------------------------------------------------

#[test]
fn pragma_suppression_and_misuse() {
    // Reasoned pragma suppresses; bare pragma is itself an error.
    assert!(fired("fn f(a: u32) -> u64 { 1u64 << a } // lint:allow(no-raw-octave-shift): a < 8 by caller contract").is_empty());
    let f = lint_source(
        "crates/fixture/src/a.rs",
        "fn f(a: u32) -> u64 { 1u64 << a } // lint:allow(no-raw-octave-shift)\n",
    );
    assert!(f.iter().any(|x| x.rule == "pragma" && x.msg.contains("no reason")));
    // fn-scoped form covers every finding in one body, and only there:
    // the second decode fn (in its own module) still fires.
    let src = "\
// lint:allow-fn(panic-free-serve): fixture — lengths validated up front\n\
fn from_wire(b: &[u8]) -> u8 { b[0] + b[1] }\n\
mod second {\n\
    fn from_wire(b: &[u8]) -> u8 { b[0] }\n\
}\n";
    let f = lint_source("crates/fixture/src/a.rs", src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].rule, f[0].line), ("panic-free-serve", 4));
}

/// Boundary lock for the impl-aware `FnSpan` fix: a fn-scoped pragma
/// placed *between two fns inside an `impl` block* must bind to the
/// next fn in that impl — not to the next top-level fn, which is what
/// the pre-fix extraction did (it only tracked file-level spans).
#[test]
fn fn_pragma_between_impl_methods_binds_inside_the_impl() {
    let src = "\
struct S;\n\
impl S {\n\
    fn setup(&self) {}\n\
    // lint:allow-fn(panic-free-serve): fixture — header length validated by setup\n\
    fn from_wire(b: &[u8]) -> u8 { b[0] }\n\
}\n\
fn from_wire(b: &[u8]) -> u8 { b[0] }\n";
    let f = lint_source("crates/fixture/src/a.rs", src);
    // The method's finding is suppressed; the *top-level* fn after the
    // impl (which the buggy span logic used to bind instead) fires.
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!((f[0].rule, f[0].line), ("panic-free-serve", 7));
}

// ---- the workspace itself ----------------------------------------------

#[test]
fn workspace_lints_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = analysis::lint_workspace(&root).expect("workspace scan");
    assert!(report.files > 50, "walker found only {} files", report.files);
    let diags = report.diagnostics().join("\n");
    assert!(report.findings.is_empty(), "workspace must lint clean:\n{diags}");
}
