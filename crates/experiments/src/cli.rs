//! Argument helpers shared by the workspace's command-line binaries
//! (`ltf-experiments`, `ltf-campaign`, `ltf-serve`).

/// Pull the next argument as `flag`'s value and parse it, turning both
/// failure modes into one diagnostic shape: `flag: got 'X', expected
/// <what>` / `flag: missing value, expected <what>`.
pub fn take<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    expected: &str,
) -> Result<T, String> {
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag}: missing value, expected {expected}"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: got '{raw}', expected {expected}"))
}
