//! Strongly-typed identifiers.
//!
//! All identifiers are plain `u32` newtypes: cheap to copy, hash and order,
//! while preventing a device index from being used where a layer index is
//! expected.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index as a `usize`, for container indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        impl From<usize> for $name {
            #[inline]
            fn from(v: usize) -> Self {
                Self(v as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A single accelerator (one simulated GPU).
    DeviceId,
    "G"
);
id_type!(
    /// A machine (server) holding one or more devices.
    MachineId,
    "M"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_uses_prefix() {
        assert_eq!(DeviceId(3).to_string(), "G3");
        assert_eq!(MachineId(0).to_string(), "M0");
    }

    #[test]
    fn conversions_round_trip() {
        let d: DeviceId = 7usize.into();
        assert_eq!(d.index(), 7);
        let d: DeviceId = 9u32.into();
        assert_eq!(d, DeviceId(9));
    }

    #[test]
    fn ids_order_by_raw_value() {
        let set: BTreeSet<DeviceId> = [DeviceId(2), DeviceId(0), DeviceId(1)].into();
        let sorted: Vec<u32> = set.into_iter().map(|d| d.0).collect();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
