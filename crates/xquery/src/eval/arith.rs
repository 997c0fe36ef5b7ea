//! Arithmetic, unary minus and range expressions, including the date/time
//! and duration operator overloads.

use xqib_xdm::{atomize, Atomic, DateTime, Duration, Item, Sequence, XdmError, XdmResult};

use crate::ast::ArithOp;
use crate::context::DynamicContext;

use super::Eval;

/// Longest range `lo to hi` either tier builds or streams. A longer one
/// raises `XPDY0130` (implementation limit exceeded) instead of asking for
/// an allocation the host cannot make.
pub(crate) const MAX_RANGE_LEN: u64 = 1 << 24;

/// `lo to hi` as a materialised sequence.
pub(crate) fn eval_range<E>(
    ctx: &mut DynamicContext,
    lo: &E,
    hi: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let l = atomic_operand(ctx, lo, eval)?;
    let h = atomic_operand(ctx, hi, eval)?;
    Ok(match range_bounds(l, h)? {
        Some((l, h)) => (l..=h).map(Item::integer).collect(),
        None => vec![],
    })
}

/// Resolves range endpoints to inclusive integer bounds; `None` when the
/// range is empty (an empty operand or `lo > hi`), `XPDY0130` when it is
/// longer than [`MAX_RANGE_LEN`].
pub(crate) fn range_bounds(
    lo: Option<Atomic>,
    hi: Option<Atomic>,
) -> XdmResult<Option<(i64, i64)>> {
    let (Some(l), Some(h)) = (lo, hi) else {
        return Ok(None);
    };
    let l = l.as_double()? as i64;
    let h = h.as_double()? as i64;
    if l > h {
        return Ok(None);
    }
    // the unsigned distance cannot overflow, whatever the endpoints
    if h.abs_diff(l) >= MAX_RANGE_LEN {
        return Err(XdmError::new(
            "XPDY0130",
            format!("range {l} to {h} is longer than {MAX_RANGE_LEN} items"),
        ));
    }
    Ok(Some((l, h)))
}

pub(crate) fn eval_neg<E>(
    ctx: &mut DynamicContext,
    inner: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let v = atomic_operand(ctx, inner, eval)?;
    neg_atomic(v)
}

/// Unary minus over an optional atomized operand.
pub(crate) fn neg_atomic(v: Option<Atomic>) -> XdmResult<Sequence> {
    match v {
        None => Ok(vec![]),
        Some(a) => match a {
            Atomic::Integer(i) => Ok(vec![Item::integer(-i)]),
            Atomic::Decimal(d) => Ok(vec![Item::Atomic(Atomic::Decimal(-d))]),
            _ => Ok(vec![Item::double(-a.as_double()?)]),
        },
    }
}

/// Evaluates to at most one atomized item (arithmetic operand rule).
pub(crate) fn atomic_operand<E>(
    ctx: &mut DynamicContext,
    e: &E,
    eval: Eval<E>,
) -> XdmResult<Option<Atomic>> {
    let v = eval(ctx, e)?;
    match v.len() {
        0 => Ok(None),
        1 => {
            let a = atomize(&ctx.store.borrow(), &v[0]);
            Ok(Some(a))
        }
        n => Err(XdmError::type_error(format!(
            "arithmetic operand must be a singleton, got {n} items"
        ))),
    }
}

pub(crate) fn eval_arith<E>(
    ctx: &mut DynamicContext,
    op: ArithOp,
    l: &E,
    r: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let (Some(a), Some(b)) = (atomic_operand(ctx, l, eval)?, atomic_operand(ctx, r, eval)?) else {
        return Ok(vec![]);
    };
    apply_arith(op, &a, &b).map(|v| vec![Item::Atomic(v)])
}

/// Applies an arithmetic operator to two atomics with the XPath promotion
/// rules (untyped → double; integer-preserving +,-,*; decimal division).
pub fn apply_arith(op: ArithOp, a: &Atomic, b: &Atomic) -> XdmResult<Atomic> {
    use Atomic::*;

    // date/time & duration overloads first
    match (op, a, b) {
        (ArithOp::Sub, DateTime(x), DateTime(y)) => {
            return Ok(Duration(xqib_xdm::datetime::datetime_diff(x, y)));
        }
        (ArithOp::Sub, Date(x), Date(y)) => {
            return Ok(Duration(xqib_xdm::Duration::from_millis(
                (x.days_since_epoch() - y.days_since_epoch()) * 86_400_000,
            )));
        }
        (ArithOp::Add, Date(x), Duration(d)) | (ArithOp::Add, Duration(d), Date(x)) => {
            return add_date_duration(*x, d, 1);
        }
        (ArithOp::Sub, Date(x), Duration(d)) => {
            return add_date_duration(*x, d, -1);
        }
        (ArithOp::Add, DateTime(x), Duration(d)) | (ArithOp::Add, Duration(d), DateTime(x)) => {
            return add_datetime_duration(*x, d, 1);
        }
        (ArithOp::Sub, DateTime(x), Duration(d)) => {
            return add_datetime_duration(*x, d, -1);
        }
        (ArithOp::Add, Duration(x), Duration(y)) => {
            return Ok(Duration(xqib_xdm::Duration {
                months: x.months + y.months,
                millis: x.millis + y.millis,
            }));
        }
        (ArithOp::Sub, Duration(x), Duration(y)) => {
            return Ok(Duration(xqib_xdm::Duration {
                months: x.months - y.months,
                millis: x.millis - y.millis,
            }));
        }
        (ArithOp::Mul, Duration(x), n) | (ArithOp::Mul, n, Duration(x))
            if n.is_numeric() || matches!(n, Untyped(_)) =>
        {
            let f = n.as_double()?;
            return Ok(Duration(xqib_xdm::Duration {
                months: (x.months as f64 * f) as i64,
                millis: (x.millis as f64 * f) as i64,
            }));
        }
        (ArithOp::Div, Duration(x), n) if n.is_numeric() => {
            let f = n.as_double()?;
            if f == 0.0 {
                return Err(XdmError::div_by_zero());
            }
            return Ok(Duration(xqib_xdm::Duration {
                months: (x.months as f64 / f) as i64,
                millis: (x.millis as f64 / f) as i64,
            }));
        }
        _ => {}
    }

    // integer-preserving paths
    if let (Integer(x), Integer(y)) = (a, b) {
        return match op {
            ArithOp::Add => Ok(Integer(x.wrapping_add(*y))),
            ArithOp::Sub => Ok(Integer(x.wrapping_sub(*y))),
            ArithOp::Mul => Ok(Integer(x.wrapping_mul(*y))),
            ArithOp::Div => {
                if *y == 0 {
                    Err(XdmError::div_by_zero())
                } else if x % y == 0 {
                    Ok(Integer(x / y))
                } else {
                    Ok(Decimal(*x as f64 / *y as f64))
                }
            }
            ArithOp::IDiv => {
                if *y == 0 {
                    Err(XdmError::div_by_zero())
                } else {
                    Ok(Integer(x / y))
                }
            }
            ArithOp::Mod => {
                if *y == 0 {
                    Err(XdmError::div_by_zero())
                } else {
                    Ok(Integer(x % y))
                }
            }
        };
    }

    // general numeric path via double
    let x = a.as_double()?;
    let y = b.as_double()?;
    let wrap = |d: f64| -> Atomic {
        // keep decimal-ness when neither operand is a double
        let both_decimalish =
            !matches!(a, Double(_) | Untyped(_)) && !matches!(b, Double(_) | Untyped(_));
        if both_decimalish {
            Decimal(d)
        } else {
            Double(d)
        }
    };
    match op {
        ArithOp::Add => Ok(wrap(x + y)),
        ArithOp::Sub => Ok(wrap(x - y)),
        ArithOp::Mul => Ok(wrap(x * y)),
        ArithOp::Div => {
            if y == 0.0 && !matches!(a, Double(_)) && !matches!(b, Double(_)) {
                Err(XdmError::div_by_zero())
            } else {
                Ok(wrap(x / y))
            }
        }
        ArithOp::IDiv => {
            if y == 0.0 {
                Err(XdmError::div_by_zero())
            } else {
                Ok(Integer((x / y).trunc() as i64))
            }
        }
        ArithOp::Mod => {
            if y == 0.0 && !matches!(a, Double(_)) && !matches!(b, Double(_)) {
                Err(XdmError::div_by_zero())
            } else {
                Ok(wrap(x % y))
            }
        }
    }
}

fn add_date_duration(d: xqib_xdm::Date, dur: &Duration, sign: i64) -> XdmResult<Atomic> {
    let months_total = d.year as i64 * 12 + (d.month as i64 - 1) + sign * dur.months;
    let year = months_total.div_euclid(12) as i32;
    let month = (months_total.rem_euclid(12) + 1) as u8;
    let max_day = days_in(year, month);
    let day = d.day.min(max_day);
    let base = xqib_xdm::Date { year, month, day };
    let with_days = base.plus_days(sign * (dur.millis / 86_400_000));
    Ok(Atomic::Date(with_days))
}

fn add_datetime_duration(dt: DateTime, dur: &Duration, sign: i64) -> XdmResult<Atomic> {
    // months first
    let date_part = match add_date_duration(dt.date, &Duration::from_months(dur.months), sign)? {
        Atomic::Date(d) => d,
        _ => unreachable!(),
    };
    let base = DateTime::new(date_part, dt.time);
    let ms = base.epoch_millis() + sign * dur.millis;
    Ok(Atomic::DateTime(DateTime::from_epoch_millis(ms)))
}

fn days_in(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => {
            if (year % 4 == 0 && year % 100 != 0) || year % 400 == 0 {
                29
            } else {
                28
            }
        }
    }
}
