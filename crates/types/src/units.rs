//! Byte-size constants shared across crates.

/// One kibibyte... in this codebase we follow Hadoop's loose convention and
/// use power-of-two "KB/MB/GB" since block and buffer sizes are specified
/// that way (128 MB blocks, 8 MB buffers).
pub const KB: u64 = 1024;
pub const MB: u64 = 1024 * KB;
pub const GB: u64 = 1024 * MB;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(KB, 1024);
        assert_eq!(MB, 1024 * 1024);
        assert_eq!(GB, 1024 * 1024 * 1024);
    }
}
