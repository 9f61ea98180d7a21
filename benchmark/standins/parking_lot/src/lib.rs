//! Offline stand-in for `parking_lot` 0.12. `fedclassavg` declares the
//! dependency and no source file of the workspace uses it, so this crate
//! only has to exist for the manifest to resolve.
