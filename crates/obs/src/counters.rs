//! [`counters!`](crate::counters): declare a plain-`u64` counter struct
//! once and derive its merge, its `(name, value)` listing and its
//! telemetry export from that one declaration.
//!
//! Three field forms are accepted:
//!
//! * `name: u64` — a counter, listed as `name`;
//! * `name: Nested` — another `counters!` struct, flattened into this
//!   one's listing as `{name}_{nested counter}`;
//! * `name: Nested => "prefix/"` — a separate section: merged by
//!   `absorb` and exported by `record_obs` under its own prefix, but left
//!   out of this struct's listing (its own `counters()` lists it).
//!
//! The struct is emitted exactly as written (attributes, derives, field
//! order), so its `Debug` repr is that of the hand-written struct.

/// Declares a counter struct and generates, in declaration order:
///
/// * `absorb(&mut self, other: &Self)` — fieldwise sum;
/// * `counters(&self) -> Vec<(String, u64)>` — every counter as
///   `(name, value)`, nested structs flattened to `{field}_{name}`;
/// * `record_obs(&self, obs, prefix, scope)` — each listed counter as
///   `obs.counter(prefix + name, scope, value)`, then each section under
///   its declared prefix.
///
/// ```
/// cta_obs::counters! {
///     /// Per-level work.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Level {
///         /// Probes.
///         pub probes: u64,
///     }
/// }
/// cta_obs::counters! {
///     /// Whole-run work.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Run {
///         /// Steps.
///         pub steps: u64,
///         /// L1 work.
///         pub l1: Level,
///     }
/// }
/// let run = Run { steps: 2, l1: Level { probes: 5 } };
/// assert_eq!(run.counters(), [("steps".to_string(), 2), ("l1_probes".to_string(), 5)]);
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($body:tt)* }
    ) => {
        $crate::counters!(@field [$(#[$meta])* $vis struct $name] [] $($body)*);
    };

    // Field munchers: normalize each field to
    // `[kind "prefix" field [attributes] visibility [type]]`.
    (@field $head:tt [$($done:tt)*]
        $(#[$fmeta:meta])* $fvis:vis $field:ident : u64 $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@field $head
            [$($done)* [count "" $field [$(#[$fmeta])*] $fvis [u64]]] $($($rest)*)?);
    };
    (@field $head:tt [$($done:tt)*]
        $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty => $prefix:literal $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@field $head
            [$($done)* [section $prefix $field [$(#[$fmeta])*] $fvis [$ty]]] $($($rest)*)?);
    };
    (@field $head:tt [$($done:tt)*]
        $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty $(, $($rest:tt)*)?
    ) => {
        $crate::counters!(@field $head
            [$($done)* [nested "" $field [$(#[$fmeta])*] $fvis [$ty]]] $($($rest)*)?);
    };

    // All fields normalized: emit the struct and its methods.
    (@field [$(#[$meta:meta])* $vis:vis struct $name:ident]
        [$([$kind:ident $prefix:literal $field:ident [$($fattr:tt)*] $fvis:vis [$ty:ty]])*]
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($($fattr)* $fvis $field: $ty,)*
        }

        impl $name {
            /// Merges another block of counters into this one, field by
            /// field.
            pub fn absorb(&mut self, other: &Self) {
                $($crate::counters!(@absorb $kind self.$field, other.$field);)*
            }

            /// Every counter as `(name, value)` in declaration order;
            /// nested counter structs flatten to `{field}_{name}`.
            #[allow(clippy::vec_init_then_push)]
            pub fn counters(&self) -> ::std::vec::Vec<(::std::string::String, u64)> {
                let mut out = ::std::vec::Vec::new();
                $($crate::counters!(@list $kind out, $field, self.$field);)*
                out
            }

            /// Emits every listed counter onto a recorder as
            /// `{prefix}{name}` under key `scope`, then each section
            /// under its own prefix. Purely observational.
            pub fn record_obs(&self, obs: &$crate::Obs, prefix: &str, scope: &str) {
                for (name, value) in self.counters() {
                    obs.counter(&format!("{prefix}{name}"), scope, value);
                }
                $($crate::counters!(@section $kind $prefix, self.$field, obs, scope);)*
            }
        }
    };

    (@absorb count $a:expr, $b:expr) => { $a += $b };
    (@absorb $kind:ident $a:expr, $b:expr) => { $a.absorb(&$b) };

    (@list count $out:ident, $field:ident, $v:expr) => {
        $out.push((stringify!($field).to_string(), $v))
    };
    (@list nested $out:ident, $field:ident, $v:expr) => {
        for (name, value) in $v.counters() {
            $out.push((format!(concat!(stringify!($field), "_{}"), name), value));
        }
    };
    (@list section $out:ident, $field:ident, $v:expr) => {};

    (@section section $prefix:literal, $v:expr, $obs:ident, $scope:ident) => {
        $v.record_obs($obs, $prefix, $scope)
    };
    (@section $kind:ident $prefix:literal, $v:expr, $obs:ident, $scope:ident) => {};
}

#[cfg(test)]
mod tests {
    crate::counters! {
        /// Inner fixture.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Inner {
            /// First.
            pub a: u64,
            /// Second.
            pub b: u64,
        }
    }

    crate::counters! {
        /// Outer fixture: a counter, a flattened nest and a section.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Outer {
            /// Own counter.
            pub x: u64,
            /// Flattened as `l1_a`, `l1_b`.
            pub l1: Inner,
            /// Recorded under `side/`, not listed.
            pub side: Inner => "side/",
        }
    }

    fn sample(k: u64) -> Outer {
        Outer {
            x: k,
            l1: Inner { a: 2 * k, b: 3 * k },
            side: Inner { a: 5 * k, b: 7 * k },
        }
    }

    #[test]
    fn absorb_is_a_fieldwise_sum() {
        let mut total = sample(1);
        total.absorb(&sample(10));
        assert_eq!(total, sample(11));
    }

    #[test]
    fn nested_names_flatten_and_sections_stay_out() {
        let names: Vec<(String, u64)> = sample(1).counters();
        let expect = [("x", 1), ("l1_a", 2), ("l1_b", 3)];
        assert_eq!(
            names,
            expect.map(|(n, v)| (n.to_string(), v)).to_vec(),
            "declaration order, field-prefixed nests, no section"
        );
        assert_eq!(
            format!("{:?}", Outer::default()),
            "Outer { x: 0, l1: Inner { a: 0, b: 0 }, side: Inner { a: 0, b: 0 } }"
        );
    }

    #[test]
    fn record_obs_keys_are_prefix_plus_name() {
        let obs = crate::Obs::new();
        sample(1).record_obs(&obs, "run/", "k");
        let snap = obs.snapshot();
        let got: Vec<(&str, &str, u64)> = snap
            .counters
            .iter()
            .map(|((n, k), v)| (n.as_str(), k.as_str(), *v))
            .collect();
        assert_eq!(
            got,
            [
                ("run/l1_a", "k", 2),
                ("run/l1_b", "k", 3),
                ("run/x", "k", 1),
                ("side/a", "k", 5),
                ("side/b", "k", 7),
            ]
        );
    }
}
