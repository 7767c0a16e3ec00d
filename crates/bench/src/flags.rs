//! How `dapple-bench` and its `diff` subcommand read a flag's value: one
//! wording for "missing" and "malformed". The `Err` is the message; the
//! caller prints it above its usage line and exits with status 2.

/// The value following `flag`; `what` says what was expected ("a path").
pub fn value<'a>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    Ok(v)
}

/// The threshold following `flag`: a finite, non-negative number. Every
/// caller compares a measurement against it with `>`, which a NaN would
/// never satisfy, so `nan`, `inf` and negative values are rejected here.
pub fn number<'a>(args: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<f64, String> {
    let raw = value(args, flag, "a number")?;
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        Ok(_) => Err(format!("{flag}: not a finite, non-negative number: {raw}")),
        Err(_) => Err(format!("{flag}: not a number: {raw}")),
    }
}
