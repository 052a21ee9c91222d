//! The workspace's JSON reader ([`ncs_obs::json`](ncs_core::json)) under
//! the names the benchmark package imports.

pub use ncs_core::json::{parse as parse_json, Json};
