//! Offline stand-in for `serde` 1.x.
//!
//! The library crates only *derive* `Serialize`/`Deserialize` on their
//! configuration types; nothing outside their tests serialises through
//! serde. So the traits here are markers and the derives (in the
//! `serde_derive` stand-in) emit empty impls. Code that needs real
//! serialisation must use the published crate.

/// Marker for types the published crate could serialise.
pub trait Serialize {}

/// Marker for types the published crate could deserialise.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
