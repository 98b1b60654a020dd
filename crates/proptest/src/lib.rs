//! Vendored stand-in for the `proptest` crate.
//!
//! The build environment has no network access to a crates registry, so the
//! workspace vendors the subset of proptest's API it uses: the `proptest!`
//! test macro, `prop_assert*` macros, range/`Just`/tuple/`prop_oneof!`/
//! `collection::vec` strategies, `any::<T>()`, `prop::sample::Index`, and
//! `ProptestConfig { cases }`.
//!
//! Differences from the real crate, by design:
//! * **No shrinking.** A failing case reports its case number and the test's
//!   deterministic RNG seed; the repo's own trace/replay tooling (DESIGN §5,
//!   "Debugging a failing seed") is the intended minimization workflow.
//! * **Serial cases.** Cases run one after another on the test's thread;
//!   whole-cluster sweeps that need cores use `testbed::chaos` instead.
//! * **Deterministic by default.** Each test's RNG is seeded from the hash
//!   of its fully-qualified name, so failures reproduce without a
//!   `proptest-regressions` file. Set `PROPTEST_SEED=<u64>` to override.

#![forbid(unsafe_code)]

pub mod test_runner {
    use std::fmt;

    /// Per-test configuration (subset: `cases`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single test case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// The case failed an assertion.
        Fail(String),
        /// The case asked to be discarded (not a failure).
        Reject(String),
    }

    impl TestCaseError {
        /// A failed assertion with the given message.
        pub fn fail(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(msg.into())
        }

        /// A rejected (discarded) case.
        pub fn reject(msg: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(msg.into())
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
                TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
            }
        }
    }

    /// Outcome of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// The deterministic generator driving strategy sampling
    /// (SplitMix64 — tiny and statistically fine for test-data generation).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    /// `PROPTEST_SEED` if set, else FNV-1a over the test name.
    pub(crate) fn parse_seed(proptest_seed: Option<&str>, test_name: &str) -> u64 {
        if let Some(v) = proptest_seed {
            return v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("PROPTEST_SEED={v:?}: expected a decimal u64"));
        }
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    impl TestRng {
        /// Seeds from an explicit value.
        pub fn from_seed(seed: u64) -> TestRng {
            TestRng { state: seed }
        }

        /// Seeds deterministically from a test's fully-qualified name, or
        /// from `PROPTEST_SEED` if set in the environment (panics if that
        /// is not a decimal `u64`).
        pub fn deterministic(test_name: &str) -> TestRng {
            let raw = std::env::var_os("PROPTEST_SEED");
            let raw = raw.as_deref().map(|v| v.to_string_lossy());
            TestRng::from_seed(parse_seed(raw.as_deref(), test_name))
        }

        /// The seed this generator started from (for failure reports).
        pub fn seed(&self) -> u64 {
            self.state
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform draw from `[lo, hi)`.
        pub fn below(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi, "empty range");
            lo + self.next_u64() % (hi - lo)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Something that can generate values of `Value` from a [`TestRng`].
    ///
    /// Unlike the real crate there is no value tree / shrinking: `generate`
    /// produces a final value directly.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// A strategy producing a single (cloned) value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    let off = (rng.next_u64() as u128 % span) as $t;
                    self.start + off
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128) - (lo as u128) + 1;
                    lo + (rng.next_u64() as u128 % span) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )+};
    }
    impl_tuple_strategy!(
        (A.0),
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
        (A.0, B.1, C.2, D.3, E.4, F.5)
    );

    /// Uniform choice among boxed alternatives (built by `prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// Builds a union over the given alternatives.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(0, self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Admissible element counts for collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        /// Minimum length (inclusive).
        pub min: usize,
        /// Maximum length (inclusive).
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `elem` and whose length
    /// falls in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.below(self.size.min as u64, self.size.max as u64 + 1) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Samples an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            rng.next_f64()
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod sample {
    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An index into a collection whose length is only known at use time.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(u64);

    impl Index {
        /// Maps this abstract index into `0..len`.
        ///
        /// # Panics
        /// Panics if `len == 0`.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// Defines deterministic property tests over generated inputs.
///
/// Supports the block form used across this workspace:
/// an optional `#![proptest_config(...)]` inner attribute followed by
/// `#[test] fn name(binding in strategy, ...) { body }` items. The body may
/// use `prop_assert*` and `?` over [`test_runner::TestCaseResult`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($binding:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            let test_name = concat!(module_path!(), "::", stringify!($name));
            let mut rng = $crate::test_runner::TestRng::deterministic(test_name);
            let seed = rng.seed();
            for case in 0..cfg.cases {
                $(let $binding = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let outcome: $crate::test_runner::TestCaseResult = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match outcome {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest {test_name}: case {}/{} failed (seed {seed}): {msg}",
                            case + 1,
                            cfg.cases,
                        );
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Fails the current test case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "{}\n  left: `{:?}`\n right: `{:?}`",
            format!($($fmt)+), l, r
        );
    }};
}

/// Fails the current test case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "{}\n  both: `{:?}`",
            format!($($fmt)+), l
        );
    }};
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let options: ::std::vec::Vec<
            ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>,
        > = vec![$(::std::boxed::Box::new($strat),)+];
        $crate::strategy::Union::new(options)
    }};
}

pub mod prelude {
    //! The usual glob import, mirroring the real crate's prelude.
    pub use crate as prop;
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn helper_using_question_mark(x: u64) -> TestCaseResult {
        prop_assert!(x < 1_000_000, "x out of range: {x}");
        Ok(())
    }

    proptest! {
        #[test]
        fn ranges_and_tuples((a, b, c) in (0u64..10, 1u8..3, 0usize..5), f in 0.0f64..1.0) {
            prop_assert!(a < 10);
            prop_assert!((1..3).contains(&b));
            prop_assert!(c < 5);
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_and_oneof(
            v in prop::collection::vec(any::<u8>(), 2..6),
            pick in prop_oneof![Just(1u32), Just(2u32)],
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(pick == 1 || pick == 2);
            prop_assert!(idx.index(v.len()) < v.len());
            helper_using_question_mark(v.len() as u64)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 7 })]
        #[test]
        fn config_is_respected(x in 0u32..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn proptest_seed_overrides_the_name_hash_or_panics() {
        use crate::test_runner::parse_seed;
        assert_eq!(parse_seed(Some("42"), "a::b"), 42);
        assert_eq!(parse_seed(None, ""), 0xcbf29ce484222325);
        assert_ne!(parse_seed(None, "a::b"), parse_seed(None, "a::c"));
        for typo in ["abc", "", "0x2a", "-1"] {
            let err = std::panic::catch_unwind(|| parse_seed(Some(typo), "a::b")).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains(&format!("PROPTEST_SEED={typo:?}")), "{msg}");
        }
    }

    #[test]
    fn deterministic_generation() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(0u64..1000, 5..10);
        let mut r1 = crate::test_runner::TestRng::from_seed(99);
        let mut r2 = crate::test_runner::TestRng::from_seed(99);
        assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
    }

    // Declared without `#[test]` so the test below can invoke it directly
    // and inspect the panic it raises.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 32 })]
        fn failing_run(x in 0u64..100) {
            prop_assert!(x < 40, "x too large: {x}");
        }
    }

    #[test]
    fn failure_reports_the_first_failing_case_and_seed() {
        use crate::strategy::Strategy;
        // Reconstruct the generated stream to find the first case the
        // property rejects.
        let test_name = concat!(module_path!(), "::", "failing_run");
        let mut rng = crate::test_runner::TestRng::deterministic(test_name);
        let seed = rng.seed();
        let strat = 0u64..100;
        let mut first_fail = None;
        for case in 0..32u32 {
            let x = strat.generate(&mut rng);
            if x >= 40 {
                first_fail = Some((case, x));
                break;
            }
        }
        let (case, x) = first_fail.expect("32 draws from 0..100 should exceed 40");
        let expected = format!(
            "proptest {test_name}: case {}/32 failed (seed {seed}): x too large: {x}",
            case + 1
        );
        let err = std::panic::catch_unwind(failing_run).expect_err("failing property must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload should be a formatted String");
        assert_eq!(msg, expected);
    }
}
