//! The LRU policy behind every process-resident cache, re-exported from
//! `dra_ir::cache` (where the remapping search cache can reach it).

pub use dra_ir::cache::LruCache;
