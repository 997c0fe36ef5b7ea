//! FLWOR and quantified expressions.

use xqib_dom::QName;
use xqib_xdm::{
    atomize, compare_atomics, effective_boolean_value, Atomic, Item, Sequence, XdmError, XdmResult,
};

use crate::ast::{FlworClause, Quantifier};
use crate::context::DynamicContext;

use super::Eval;

/// One tuple of the FLWOR tuple stream.
type Tuple = Vec<(QName, Sequence)>;

/// Runs `f` in a scope binding a tuple's variables: `tuple.iter().cloned()`
/// while the tuple lives on, the tuple itself when this is its last use.
fn with_tuple<R>(
    ctx: &mut DynamicContext,
    tuple: impl IntoIterator<Item = (QName, Sequence)>,
    f: impl FnOnce(&mut DynamicContext) -> XdmResult<R>,
) -> XdmResult<R> {
    ctx.push_scope();
    for (name, value) in tuple {
        ctx.bind_var(name, value);
    }
    let r = f(ctx);
    ctx.pop_scope();
    r
}

/// The breadth-first FLWOR pipeline: each clause maps the whole tuple
/// stream before the next runs, then `ret` runs once per surviving tuple.
pub(crate) fn eval_flwor<E>(
    ctx: &mut DynamicContext,
    clauses: &[FlworClause<E>],
    ret: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let mut tuples: Vec<Tuple> = vec![Vec::new()];
    for clause in clauses {
        tuples = apply_clause(ctx, tuples, clause, eval)?;
    }
    let mut out = Vec::new();
    for tuple in tuples {
        out.extend(with_tuple(ctx, tuple, |ctx| eval(ctx, ret))?);
    }
    Ok(out)
}

fn apply_clause<E>(
    ctx: &mut DynamicContext,
    tuples: Vec<Tuple>,
    clause: &FlworClause<E>,
    eval: Eval<E>,
) -> XdmResult<Vec<Tuple>> {
    let mut out = Vec::with_capacity(tuples.len());
    match clause {
        FlworClause::For { var, at, ty, seq } => {
            for tuple in tuples {
                let items = with_tuple(ctx, tuple.iter().cloned(), |ctx| eval(ctx, seq))?;
                for (i, item) in items.into_iter().enumerate() {
                    // one fuel unit per tuple the `for` clause materialises:
                    // cartesian blow-ups are preempted even though each
                    // binding evaluates only a handful of expressions
                    ctx.charge_fuel(1)?;
                    if let Some(t) = ty {
                        let single = vec![item.clone()];
                        if !ctx.with_store(|s| t.matches(s, &single)) {
                            return Err(XdmError::type_error(format!(
                                "for ${var} as {t}: item does not match"
                            )));
                        }
                    }
                    let mut new_tuple = tuple.clone();
                    new_tuple.push((var.clone(), vec![item]));
                    if let Some(at_var) = at {
                        new_tuple.push((at_var.clone(), vec![Item::integer(i as i64 + 1)]));
                    }
                    out.push(new_tuple);
                }
            }
        }
        FlworClause::Let { var, ty: _, expr } => {
            for mut tuple in tuples {
                let v = with_tuple(ctx, tuple.iter().cloned(), |ctx| eval(ctx, expr))?;
                tuple.push((var.clone(), v));
                out.push(tuple);
            }
        }
        FlworClause::Where(cond) => {
            for tuple in tuples {
                let keep = with_tuple(ctx, tuple.iter().cloned(), |ctx| {
                    effective_boolean_value(&eval(ctx, cond)?)
                })?;
                if keep {
                    out.push(tuple);
                }
            }
        }
        FlworClause::OrderBy { specs, stable: _ } => {
            let mut keyed: Vec<(Vec<Option<Atomic>>, Tuple)> = Vec::with_capacity(tuples.len());
            for tuple in tuples {
                let mut keys = Vec::with_capacity(specs.len());
                for spec in specs {
                    let v = with_tuple(ctx, tuple.iter().cloned(), |ctx| eval(ctx, &spec.key))?;
                    keys.push(match &v[..] {
                        [] => None,
                        [item] => Some(atomize(&ctx.store.borrow(), item)),
                        _ => return Err(XdmError::type_error("order by key must be a singleton")),
                    });
                }
                keyed.push((keys, tuple));
            }
            let dirs: Vec<(bool, bool)> = specs
                .iter()
                .map(|s| (s.descending, s.empty_least))
                .collect();
            return sort_keyed(keyed, &dirs);
        }
    }
    Ok(out)
}

/// Stable, spec-directed sort of keyed values. `dirs` is one
/// `(descending, empty_least)` pair per order key: `order by` ties,
/// empty-key placement and the NaN-skip rule.
fn sort_keyed<T>(
    mut keyed: Vec<(Vec<Option<Atomic>>, T)>,
    dirs: &[(bool, bool)],
) -> XdmResult<Vec<T>> {
    let mut err: Option<XdmError> = None;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, &(descending, empty_least)) in dirs.iter().enumerate() {
            let ord = match (&ka[i], &kb[i]) {
                (None, None) => std::cmp::Ordering::Equal,
                (None, Some(_)) => {
                    if empty_least {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Greater
                    }
                }
                (Some(_), None) => {
                    if empty_least {
                        std::cmp::Ordering::Greater
                    } else {
                        std::cmp::Ordering::Less
                    }
                }
                (Some(a), Some(b)) => match compare_atomics(a, b) {
                    Ok(o) => o,
                    Err(e) => {
                        if err.is_none() && e.code != "XQIBNAN" {
                            err = Some(e);
                        }
                        std::cmp::Ordering::Equal
                    }
                },
            };
            let ord = if descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(e) = err {
        return Err(e);
    }
    Ok(keyed.into_iter().map(|(_, t)| t).collect())
}

/// `some`/`every`: binds each variable to each item of its source in turn,
/// nested left to right, and stops at the first deciding `satisfies`.
pub(crate) fn quantified<E>(
    ctx: &mut DynamicContext,
    kind: Quantifier,
    bindings: &[(QName, E)],
    satisfies: &E,
    eval: Eval<E>,
) -> XdmResult<Sequence> {
    let result = quantify(ctx, kind, bindings, satisfies, eval)?;
    Ok(vec![Item::boolean(result)])
}

fn quantify<E>(
    ctx: &mut DynamicContext,
    kind: Quantifier,
    bindings: &[(QName, E)],
    satisfies: &E,
    eval: Eval<E>,
) -> XdmResult<bool> {
    match bindings.split_first() {
        None => {
            let v = eval(ctx, satisfies)?;
            effective_boolean_value(&v)
        }
        Some(((var, seq), rest)) => {
            let items = eval(ctx, seq)?;
            for item in items {
                ctx.push_scope();
                ctx.bind_var(var.clone(), vec![item]);
                let inner = quantify(ctx, kind, rest, satisfies, eval);
                ctx.pop_scope();
                let inner = inner?;
                match kind {
                    Quantifier::Some if inner => return Ok(true),
                    Quantifier::Every if !inner => return Ok(false),
                    _ => {}
                }
            }
            Ok(matches!(kind, Quantifier::Every))
        }
    }
}
