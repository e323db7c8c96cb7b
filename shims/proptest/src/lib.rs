//! Offline stand-in for `proptest`.
//!
//! A deterministic random-testing harness implementing the subset of
//! proptest this workspace uses: the [`proptest!`] macro, range and
//! tuple strategies, [`collection::vec`], [`option::of`], [`any`],
//! `prop_filter`, and a miniature regex string strategy (`".*"` and
//! `"[^X]*"` character-class patterns). No shrinking: a failing case
//! panics with the generating seed so it can be replayed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Runner configuration (subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value: std::fmt::Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Keep only values satisfying `pred`; panics if 1000 consecutive
    /// draws are rejected (mirrors proptest's rejection limit).
    fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            reason,
            pred,
        }
    }
}

/// Strategy produced by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({:?}) rejected 1000 consecutive cases",
            self.reason
        );
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        rng.random_range(self.clone())
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!((A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

/// `&str` strategies are miniature regexes. Supported syntax: a single
/// atom — `.` (any char but newline), `[...]` / `[^...]` with `\r`,
/// `\n`, `\t`, `\\` escapes — followed by `*`, or a literal string.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        generate_pattern(self, rng)
    }
}

fn parse_class(pattern: &str) -> Option<(bool, Vec<char>)> {
    let body = pattern.strip_prefix('[')?.strip_suffix(']')?;
    let (negated, body) = match body.strip_prefix('^') {
        Some(rest) => (true, rest),
        None => (false, body),
    };
    let mut chars = Vec::new();
    let mut it = body.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('r') => chars.push('\r'),
                Some('n') => chars.push('\n'),
                Some('t') => chars.push('\t'),
                Some(other) => chars.push(other),
                None => return None,
            }
        } else {
            chars.push(c);
        }
    }
    Some((negated, chars))
}

/// Character pool deliberately rich in CSV/encoding hazards: quotes,
/// commas, newlines, non-ASCII.
const POOL: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', ',', ';', '"', '\'', '\\', '/', '.', '-', '_', '|',
    '\n', '\t', '\r', 'é', 'µ', '→', '∅', '字',
];

fn generate_pattern(pattern: &str, rng: &mut StdRng) -> String {
    let (accept, star): (Box<dyn Fn(char) -> bool>, bool) = if pattern == ".*" {
        (Box::new(|c| c != '\n'), true)
    } else if let Some(class) = pattern.strip_suffix('*').and_then(parse_class) {
        let (negated, chars) = class;
        (Box::new(move |c| chars.contains(&c) != negated), true)
    } else {
        // Literal fallback.
        return pattern.to_string();
    };
    debug_assert!(star);
    let len = rng.random_range(0..12usize);
    let mut out = String::new();
    while out.chars().count() < len {
        let c = POOL[rng.random_range(0..POOL.len())];
        if accept(c) {
            out.push(c);
        }
    }
    out
}

/// Full-domain strategies, keyed by type.
pub fn any<T: AnyStrategy>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// Types with an [`any`] strategy.
pub trait AnyStrategy: Sized + std::fmt::Debug {
    /// Draw from the type's full domain.
    fn any_value(rng: &mut StdRng) -> Self;
}

impl<T: AnyStrategy> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::any_value(rng)
    }
}

impl AnyStrategy for f64 {
    /// Mixes ordinary magnitudes with raw-bit patterns and the special
    /// values (NaN, infinities, signed zero) so ordering and
    /// finiteness edge cases get exercised.
    fn any_value(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..10u32) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 | 6 => f64::from_bits(rng.random::<u64>()),
            _ => (rng.random::<f64>() - 0.5) * 2e9,
        }
    }
}

impl AnyStrategy for i64 {
    fn any_value(rng: &mut StdRng) -> i64 {
        match rng.random_range(0..4u32) {
            0 => rng.random_range(-100i64..100),
            1 => i64::MIN,
            2 => i64::MAX,
            _ => rng.random::<u64>() as i64,
        }
    }
}

/// Collection strategies.
pub mod collection {
    use super::{SizeRange, Strategy};

    /// A `Vec` of values from `element`, with length drawn from
    /// `size` (a range or an exact length).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> Vec<S::Value> {
            let n = self.size.draw(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Length specification for [`collection::vec`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn draw(self, rng: &mut StdRng) -> usize {
        rand::RngExt::random_range(rng, self.lo..self.hi.max(self.lo + 1))
    }
}

impl From<std::ops::Range<usize>> for SizeRange {
    fn from(r: std::ops::Range<usize>) -> Self {
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

/// `Option` strategies.
pub mod option {
    use super::Strategy;

    /// `Some` with probability 0.8, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> Option<S::Value> {
            if rand::RngExt::random_bool(rng, 0.8) {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

/// Everything a property-test module typically imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Any,
        ProptestConfig, Strategy,
    };
}

/// Deterministic per-test seed base. Fixed so failures replay; the
/// case index is mixed in per iteration.
#[doc(hidden)]
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h ^ (u64::from(case) << 32) ^ u64::from(case))
}

/// Property assertion (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skip the current case when an assumption fails. The shim simply
/// returns from the case closure, counting the case as passed.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}

/// The property-test entry macro. Each `fn name(pat in strategy, …)`
/// becomes a `#[test]` running `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@run ($cfg); $($rest)*);
    };
    (@run ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::case_rng(stringify!($name), case);
                    // Zero-argument closure so `prop_assume!`'s early
                    // `return` skips only this case, not the whole test.
                    let mut one_case = || {
                        $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                        $body
                    };
                    one_case();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@run ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 0u8..4, y in -10i64..10, f in -1.5f64..1.5) {
            prop_assert!(x < 4);
            prop_assert!((-10..10).contains(&y));
            prop_assert!((-1.5..1.5).contains(&f));
        }

        #[test]
        fn vec_sizes_and_option(v in crate::collection::vec((0u8..3, crate::option::of(0.0f64..1.0)), 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
        }

        #[test]
        fn filtered_any_is_finite(v in any::<f64>().prop_filter("finite", |x| x.is_finite())) {
            prop_assert!(v.is_finite());
        }

        #[test]
        fn string_pattern_excludes_class(s in "[^\r]*") {
            prop_assert!(!s.contains('\r'));
        }
    }

    #[test]
    fn exact_vec_size() {
        let mut rng = crate::case_rng("exact", 0);
        let v = crate::Strategy::generate(&crate::collection::vec(0usize..50, 9), &mut rng);
        assert_eq!(v.len(), 9);
    }
}
