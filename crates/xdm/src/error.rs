//! W3C error codes for XQuery/XPath, raised as [`XdmError`].
//!
//! The engine uses the standard `err:` codes: `XPST….` static errors,
//! `XPDY…`/`XQDY…` dynamic errors, `XPTY…`/`XQTY…` type errors, `FO…`
//! function/operator errors, `XUDY…`/`XUST…` update errors, and `XQSE…`
//! for the scripting extension. Browser-specific failures use the `XQIB…`
//! range (e.g. a blocked `fn:doc`, §4.2.1).

use std::fmt;

/// An XQuery error: a W3C code plus a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XdmError {
    pub code: String,
    pub message: String,
}

impl XdmError {
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        XdmError {
            code: code.to_string(),
            message: message.into(),
        }
    }

    /// XPTY0004 — type error during evaluation.
    pub fn type_error(message: impl Into<String>) -> Self {
        Self::new("XPTY0004", message)
    }

    /// XPDY0002 — undefined context/variable component.
    pub fn undefined(message: impl Into<String>) -> Self {
        Self::new("XPDY0002", message)
    }

    /// FORG0001 — invalid value for cast.
    pub fn invalid_cast(message: impl Into<String>) -> Self {
        Self::new("FORG0001", message)
    }

    /// FOAR0001 — division by zero.
    pub fn div_by_zero() -> Self {
        Self::new("FOAR0001", "division by zero")
    }

    /// FORG0006 — invalid argument type (e.g. no effective boolean value).
    pub fn no_ebv(message: impl Into<String>) -> Self {
        Self::new("FORG0006", message)
    }

    /// XPST0017 — unknown function.
    pub fn unknown_function(name: &str, arity: usize) -> Self {
        Self::new(
            "XPST0017",
            format!("no function named {name}#{arity} in the static context"),
        )
    }

    /// XQIB0001 — operation blocked by the browser security profile
    /// (the paper proposes blocking `fn:doc`/`fn:put` in the browser).
    pub fn browser_blocked(message: impl Into<String>) -> Self {
        Self::new("XQIB0001", message)
    }
}

impl fmt::Display for XdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)
    }
}

impl std::error::Error for XdmError {}

/// Result alias used throughout the engine.
pub type XdmResult<T> = Result<T, XdmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code() {
        let e = XdmError::type_error("bad operand");
        assert_eq!(e.to_string(), "[XPTY0004] bad operand");
    }

    #[test]
    fn helpers_use_standard_codes() {
        assert_eq!(XdmError::div_by_zero().code, "FOAR0001");
        assert_eq!(XdmError::undefined("x").code, "XPDY0002");
        assert_eq!(XdmError::unknown_function("fn:nope", 2).code, "XPST0017");
        assert_eq!(XdmError::browser_blocked("doc").code, "XQIB0001");
    }
}
