//! The built-in XQuery function & operator library (`fn:` namespace).
//!
//! §1 of the paper counts "a powerful function and operator library (e.g.,
//! for dates and times)" among XQuery's advantages over JavaScript; this
//! module implements the portion of F&O the paper's applications and a
//! realistic browser workload need: accessors, booleans, numerics, strings
//! (including regex-based `matches`/`replace`/`tokenize`), sequences,
//! aggregation, node functions, dates/times and `fn:doc` under the browser
//! security profile.

pub mod regex;
pub mod stemmer;

use std::rc::Rc;

use xqib_dom::{name::FN_NS, Document, NodeId, NodeKind, QName, Visit, Walk};
use xqib_xdm::{
    atomize, effective_boolean_value, value_compare, Atomic, CompOp, DateTime, Item, Sequence,
    TypeName, XdmError, XdmResult,
};

use crate::context::DynamicContext;
use regex::Regex;

/// Attempts to call a built-in function. Returns `None` when the name/arity
/// is not a known built-in (so the caller can raise XPST0017).
pub fn call_builtin(
    ctx: &mut DynamicContext,
    name: &QName,
    mut args: Vec<Sequence>,
) -> Option<XdmResult<Sequence>> {
    // built-ins live in fn: (callers map unprefixed names there)
    if name.ns.as_deref() != Some(FN_NS) {
        return None;
    }
    let arity = args.len();
    let r = match (&*name.local, arity) {
        // ----- accessors -----
        ("string", 0) => ctx
            .context_item()
            .map(|i| vec![Item::string(i.string_value(&ctx.store.borrow()))]),
        ("string", 1) => Ok(match args[0].first() {
            None => vec![Item::string("")],
            Some(i) => vec![Item::string(i.string_value(&ctx.store.borrow()))],
        }),
        ("data", 1) => {
            let store = ctx.store.borrow();
            Ok(args[0]
                .iter()
                .map(|i| Item::Atomic(atomize(&store, i)))
                .collect())
        }
        ("node-name", 1) => one_node(&args[0]).map(|n| match n {
            None => vec![],
            Some(nr) => {
                let store = ctx.store.borrow();
                match store.doc(nr.doc).node_name(nr.node) {
                    Some(q) => vec![Item::Atomic(Atomic::QName(q))],
                    None => vec![],
                }
            }
        }),
        ("base-uri", 0 | 1) => Ok(vec![]),
        ("document-uri", 1) => one_node(&args[0]).map(|n| match n {
            Some(nr) => {
                let store = ctx.store.borrow();
                match &store.doc(nr.doc).base_uri {
                    Some(u) => vec![Item::string(u)],
                    None => vec![],
                }
            }
            None => vec![],
        }),
        // ----- booleans -----
        ("true", 0) => Ok(vec![Item::boolean(true)]),
        ("false", 0) => Ok(vec![Item::boolean(false)]),
        ("not", 1) => effective_boolean_value(&args[0]).map(|b| vec![Item::boolean(!b)]),
        ("boolean", 1) => effective_boolean_value(&args[0]).map(|b| vec![Item::boolean(b)]),
        // ----- numerics -----
        ("abs", 1) => numeric_unary(ctx, &args[0], |d| d.abs()),
        ("ceiling", 1) => numeric_unary(ctx, &args[0], f64::ceil),
        ("floor", 1) => numeric_unary(ctx, &args[0], f64::floor),
        ("round", 1) => numeric_unary(ctx, &args[0], |d| (d + 0.5).floor()),
        ("round-half-to-even", 1) => numeric_unary(ctx, &args[0], |d| {
            let r = d.round();
            if (d - d.trunc()).abs() == 0.5 && r % 2.0 != 0.0 {
                r - d.signum()
            } else {
                r
            }
        }),
        ("number", 0) => {
            let item = match ctx.context_item() {
                Ok(i) => i,
                Err(e) => return Some(Err(e)),
            };
            let a = atomize(&ctx.store.borrow(), &item);
            Ok(vec![Item::double(to_double_or_nan(&a))])
        }
        ("number", 1) => {
            let store = ctx.store.borrow();
            Ok(match args[0].first() {
                None => vec![Item::double(f64::NAN)],
                Some(i) => {
                    let a = atomize(&store, i);
                    vec![Item::double(to_double_or_nan(&a))]
                }
            })
        }
        ("count", 1) => Ok(vec![Item::integer(args[0].len() as i64)]),
        ("sum", 1 | 2) => aggregate(ctx, &args[0], Agg::Sum, args.get(1)),
        ("avg", 1) => aggregate(ctx, &args[0], Agg::Avg, None),
        ("min", 1) => aggregate(ctx, &args[0], Agg::Min, None),
        ("max", 1) => aggregate(ctx, &args[0], Agg::Max, None),
        // ----- strings -----
        ("concat", n) if n >= 2 => {
            let store = ctx.store.borrow();
            let mut out = String::new();
            for a in &args {
                if let Some(i) = a.first() {
                    out.push_str(&i.string_value(&store));
                }
            }
            Ok(vec![Item::string(out)])
        }
        ("string-join", 2) => {
            let sep = string_arg(ctx, &args[1]);
            let store = ctx.store.borrow();
            let parts: Vec<String> = args[0].iter().map(|i| i.string_value(&store)).collect();
            Ok(vec![Item::string(parts.join(&sep))])
        }
        ("substring", 2 | 3) => substring(ctx, &args),
        ("string-length", 0) => ctx.context_item().map(|i| {
            vec![Item::integer(
                i.string_value(&ctx.store.borrow()).chars().count() as i64,
            )]
        }),
        ("string-length", 1) => {
            let s = string_arg(ctx, &args[0]);
            Ok(vec![Item::integer(s.chars().count() as i64)])
        }
        ("normalize-space", 0 | 1) => {
            let s = if arity == 0 {
                match ctx.context_item() {
                    Ok(i) => i.string_value(&ctx.store.borrow()),
                    Err(e) => return Some(Err(e)),
                }
            } else {
                string_arg(ctx, &args[0])
            };
            Ok(vec![Item::string(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            )])
        }
        ("upper-case", 1) => Ok(vec![Item::string(string_arg(ctx, &args[0]).to_uppercase())]),
        ("lower-case", 1) => Ok(vec![Item::string(string_arg(ctx, &args[0]).to_lowercase())]),
        ("translate", 3) => {
            let s = string_arg(ctx, &args[0]);
            let from: Vec<char> = string_arg(ctx, &args[1]).chars().collect();
            let to: Vec<char> = string_arg(ctx, &args[2]).chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(vec![Item::string(out)])
        }
        ("contains", 2) => {
            let s = string_arg(ctx, &args[0]);
            let t = string_arg(ctx, &args[1]);
            Ok(vec![Item::boolean(s.contains(&t))])
        }
        ("starts-with", 2) => {
            let s = string_arg(ctx, &args[0]);
            let t = string_arg(ctx, &args[1]);
            Ok(vec![Item::boolean(s.starts_with(&t))])
        }
        ("ends-with", 2) => {
            let s = string_arg(ctx, &args[0]);
            let t = string_arg(ctx, &args[1]);
            Ok(vec![Item::boolean(s.ends_with(&t))])
        }
        ("substring-before", 2) => {
            let s = string_arg(ctx, &args[0]);
            let t = string_arg(ctx, &args[1]);
            Ok(vec![Item::string(match s.find(&t) {
                Some(i) => s[..i].to_string(),
                None => String::new(),
            })])
        }
        ("substring-after", 2) => {
            let s = string_arg(ctx, &args[0]);
            let t = string_arg(ctx, &args[1]);
            Ok(vec![Item::string(match s.find(&t) {
                Some(i) => s[i + t.len()..].to_string(),
                None => String::new(),
            })])
        }
        ("matches", 2 | 3) => {
            let s = string_arg(ctx, &args[0]);
            let p = string_arg(ctx, &args[1]);
            Regex::compile(&p).map(|re| vec![Item::boolean(re.is_match(&s))])
        }
        ("replace", 3 | 4) => {
            let s = string_arg(ctx, &args[0]);
            let p = string_arg(ctx, &args[1]);
            let r = string_arg(ctx, &args[2]);
            Regex::compile(&p).map(|re| vec![Item::string(re.replace_all(&s, &r))])
        }
        ("tokenize", 2 | 3) => {
            let s = string_arg(ctx, &args[0]);
            let p = string_arg(ctx, &args[1]);
            Regex::compile(&p).map(|re| {
                re.split(&s)
                    .into_iter()
                    .filter(|t| !t.is_empty())
                    .map(Item::string)
                    .collect()
            })
        }
        ("codepoints-to-string", 1) => {
            let store = ctx.store.borrow();
            let mut out = String::new();
            for i in &args[0] {
                let a = atomize(&store, i);
                match a.as_double() {
                    Ok(d) => match char::from_u32(d as u32) {
                        Some(c) => out.push(c),
                        None => return Some(Err(XdmError::new("FOCH0001", "invalid code point"))),
                    },
                    Err(e) => return Some(Err(e)),
                }
            }
            Ok(vec![Item::string(out)])
        }
        ("string-to-codepoints", 1) => {
            let s = string_arg(ctx, &args[0]);
            Ok(s.chars().map(|c| Item::integer(c as i64)).collect())
        }
        ("encode-for-uri", 1) => {
            let s = string_arg(ctx, &args[0]);
            let mut out = String::new();
            for b in s.bytes() {
                match b {
                    b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                        out.push(b as char)
                    }
                    _ => out.push_str(&format!("%{b:02X}")),
                }
            }
            Ok(vec![Item::string(out)])
        }
        // ----- sequences -----
        ("empty", 1) => Ok(vec![Item::boolean(args[0].is_empty())]),
        ("exists", 1) => Ok(vec![Item::boolean(!args[0].is_empty())]),
        ("reverse", 1) => {
            let mut v = args.remove(0);
            v.reverse();
            Ok(v)
        }
        ("distinct-values", 1) => {
            let store = ctx.store.borrow();
            let mut seen: Vec<Atomic> = Vec::new();
            for i in &args[0] {
                let a = atomize(&store, i);
                let dup = seen.iter().any(|s| {
                    value_compare(CompOp::Eq, s, &a).unwrap_or(false)
                        || (s.string_value() == a.string_value() && s.type_name() == a.type_name())
                });
                if !dup {
                    seen.push(a);
                }
            }
            Ok(seen.into_iter().map(Item::Atomic).collect())
        }
        ("insert-before", 3) => {
            let seq = args[0].clone();
            let pos = match integer_arg(ctx, &args[1]) {
                Ok(p) => p.max(1) as usize - 1,
                Err(e) => return Some(Err(e)),
            };
            let ins = args[2].clone();
            let mut out = seq;
            let at = pos.min(out.len());
            for (k, item) in ins.into_iter().enumerate() {
                out.insert(at + k, item);
            }
            Ok(out)
        }
        ("remove", 2) => {
            let pos = match integer_arg(ctx, &args[1]) {
                Ok(p) => p,
                Err(e) => return Some(Err(e)),
            };
            let mut out = args[0].clone();
            if pos >= 1 && (pos as usize) <= out.len() {
                out.remove(pos as usize - 1);
            }
            Ok(out)
        }
        ("subsequence", 2 | 3) => {
            let start = match double_arg(ctx, &args[1]) {
                Ok(d) => d,
                Err(e) => return Some(Err(e)),
            };
            let len = if arity == 3 {
                match double_arg(ctx, &args[2]) {
                    Ok(d) => d,
                    Err(e) => return Some(Err(e)),
                }
            } else {
                f64::INFINITY
            };
            let start_round = start.round();
            let end = start_round + len.round();
            Ok(args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (*i + 1) as f64;
                    p >= start_round && p < end
                })
                .map(|(_, item)| item.clone())
                .collect())
        }
        ("index-of", 2) => {
            let store = ctx.store.borrow();
            let needle = match args[1].first() {
                Some(i) => atomize(&store, i),
                None => return Some(Ok(vec![])),
            };
            let mut out = Vec::new();
            for (i, item) in args[0].iter().enumerate() {
                let a = atomize(&store, item);
                if value_compare(CompOp::Eq, &a, &needle).unwrap_or(false) {
                    out.push(Item::integer(i as i64 + 1));
                }
            }
            Ok(out)
        }
        ("zero-or-one", 1) => {
            if args[0].len() <= 1 {
                Ok(args.remove(0))
            } else {
                Err(XdmError::new("FORG0003", "zero-or-one: more than one item"))
            }
        }
        ("one-or-more", 1) => {
            if !args[0].is_empty() {
                Ok(args.remove(0))
            } else {
                Err(XdmError::new("FORG0004", "one-or-more: empty sequence"))
            }
        }
        ("exactly-one", 1) => {
            if args[0].len() == 1 {
                Ok(args.remove(0))
            } else {
                Err(XdmError::new("FORG0005", "exactly-one: not a singleton"))
            }
        }
        ("deep-equal", 2) => {
            let store = ctx.store.borrow();
            Ok(vec![Item::boolean(deep_equal(&store, &args[0], &args[1]))])
        }
        ("unordered", 1) => Ok(args.remove(0)),
        ("last", 0) => match &ctx.focus {
            Some(f) => Ok(vec![Item::integer(f.size as i64)]),
            None => Err(XdmError::undefined("fn:last() with no context")),
        },
        ("position", 0) => match &ctx.focus {
            Some(f) => Ok(vec![Item::integer(f.position as i64)]),
            None => Err(XdmError::undefined("fn:position() with no context")),
        },
        // ----- nodes -----
        ("name", 0 | 1) | ("local-name", 0 | 1) | ("namespace-uri", 0 | 1) => {
            let node = if arity == 0 {
                match ctx.context_item() {
                    Ok(Item::Node(n)) => Some(n),
                    Ok(_) => return Some(Err(XdmError::type_error("context item is not a node"))),
                    Err(e) => return Some(Err(e)),
                }
            } else {
                match one_node(&args[0]) {
                    Ok(n) => n,
                    Err(e) => return Some(Err(e)),
                }
            };
            let store = ctx.store.borrow();
            let q = node.and_then(|nr| store.doc(nr.doc).node_name(nr.node));
            Ok(vec![Item::string(match (&*name.local, q) {
                ("name", Some(q)) => q.lexical(),
                ("local-name", Some(q)) => q.local.to_string(),
                ("namespace-uri", Some(q)) => q.ns_or_empty().to_string(),
                _ => String::new(),
            })])
        }
        ("root", 0 | 1) => {
            let node = if arity == 0 {
                match ctx.context_item() {
                    Ok(Item::Node(n)) => Some(n),
                    Ok(_) => return Some(Err(XdmError::type_error("context item is not a node"))),
                    Err(e) => return Some(Err(e)),
                }
            } else {
                match one_node(&args[0]) {
                    Ok(n) => n,
                    Err(e) => return Some(Err(e)),
                }
            };
            Ok(match node {
                Some(nr) => {
                    let store = ctx.store.borrow();
                    let root = store.doc(nr.doc).tree_root(nr.node);
                    vec![Item::Node(xqib_dom::NodeRef::new(nr.doc, root))]
                }
                None => vec![],
            })
        }
        // ----- documents (browser security profile, §4.2.1) -----
        ("id", 1 | 2) => {
            // fn:id over @id attributes (the HTML/browser model: no DTD)
            let node = if arity == 2 {
                match one_node(&args[1]) {
                    Ok(n) => n,
                    Err(e) => return Some(Err(e)),
                }
            } else {
                match ctx.context_item() {
                    Ok(Item::Node(n)) => Some(n),
                    Ok(_) => {
                        return Some(Err(XdmError::type_error("fn:id requires a node context")))
                    }
                    Err(e) => return Some(Err(e)),
                }
            };
            let Some(node) = node else {
                return Some(Ok(vec![]));
            };
            let store = ctx.store.borrow();
            let wanted: Vec<String> = args[0]
                .iter()
                .flat_map(|i| {
                    i.string_value(&store)
                        .split_whitespace()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                })
                .collect();
            let doc = store.doc(node.doc);
            let root = doc.tree_root(node.node);
            let mut out = Vec::new();
            for n in doc.descendants_or_self(root) {
                if let Some(id) = doc.get_attribute(n, None, "id") {
                    if wanted.iter().any(|w| w == id) {
                        out.push(Item::Node(xqib_dom::NodeRef::new(node.doc, n)));
                    }
                }
            }
            Ok(out)
        }
        ("doc", 1) => {
            let uri = string_arg(ctx, &args[0]);
            let store = ctx.store.borrow();
            match store.doc_by_uri(&uri) {
                Some(d) => Ok(vec![Item::Node(store.root(d))]),
                None => {
                    if ctx.sctx.browser_profile {
                        Err(XdmError::browser_blocked(format!(
                            "fn:doc(\"{uri}\") is blocked in the browser; only \
                             documents provided by the page, the cache or REST \
                             responses are accessible"
                        )))
                    } else {
                        Err(XdmError::new(
                            "FODC0002",
                            format!("document \"{uri}\" not found"),
                        ))
                    }
                }
            }
        }
        ("doc-available", 1) => {
            let uri = string_arg(ctx, &args[0]);
            Ok(vec![Item::boolean(
                ctx.store.borrow().doc_by_uri(&uri).is_some(),
            )])
        }
        ("put", 2) => Err(XdmError::browser_blocked(
            "fn:put is blocked in the browser profile",
        )),
        // ----- dates & times (virtual clock) -----
        ("current-dateTime", 0) => Ok(vec![Item::Atomic(Atomic::DateTime(
            DateTime::from_epoch_millis(ctx.now_millis),
        ))]),
        ("current-date", 0) => Ok(vec![Item::Atomic(Atomic::Date(
            DateTime::from_epoch_millis(ctx.now_millis).date,
        ))]),
        ("current-time", 0) => Ok(vec![Item::Atomic(Atomic::Time(
            DateTime::from_epoch_millis(ctx.now_millis).time,
        ))]),
        ("year-from-date", 1) | ("month-from-date", 1) | ("day-from-date", 1) => {
            date_component(ctx, &args[0], &name.local, false)
        }
        ("year-from-dateTime", 1)
        | ("month-from-dateTime", 1)
        | ("day-from-dateTime", 1)
        | ("hours-from-dateTime", 1)
        | ("minutes-from-dateTime", 1)
        | ("seconds-from-dateTime", 1) => date_component(ctx, &args[0], &name.local, true),
        // ----- diagnostics -----
        ("error", 0) => Err(XdmError::new("FOER0000", "fn:error()")),
        ("error", 1 | 2) => {
            let code = string_arg(ctx, &args[0]);
            let msg = if arity == 2 {
                string_arg(ctx, &args[1])
            } else {
                "fn:error".to_string()
            };
            Err(XdmError::new(
                if code.is_empty() { "FOER0000" } else { &code },
                msg,
            ))
        }
        ("trace", 2) => Ok(args.remove(0)),
        _ => return None,
    };
    Some(r)
}

// ----- helpers ---------------------------------------------------------------

/// String value of the first item of a sequence ("" when empty).
pub fn string_arg(ctx: &DynamicContext, seq: &Sequence) -> String {
    match seq.first() {
        Some(i) => i.string_value(&ctx.store.borrow()),
        None => String::new(),
    }
}

/// `fn:number` semantics: cast to xs:double, NaN on failure.
fn to_double_or_nan(a: &Atomic) -> f64 {
    match a.cast_to(TypeName::Double) {
        Ok(Atomic::Double(d)) => d,
        _ => f64::NAN,
    }
}

fn double_arg(ctx: &DynamicContext, seq: &Sequence) -> XdmResult<f64> {
    match seq.first() {
        Some(i) => atomize(&ctx.store.borrow(), i).as_double(),
        None => Err(XdmError::type_error("expected a number, got ()")),
    }
}

fn integer_arg(ctx: &DynamicContext, seq: &Sequence) -> XdmResult<i64> {
    double_arg(ctx, seq).map(|d| d as i64)
}

fn one_node(seq: &Sequence) -> XdmResult<Option<xqib_dom::NodeRef>> {
    match seq.first() {
        None => Ok(None),
        Some(Item::Node(n)) => Ok(Some(*n)),
        Some(Item::Atomic(_)) => Err(XdmError::type_error("expected a node")),
    }
}

fn numeric_unary(
    ctx: &DynamicContext,
    seq: &Sequence,
    f: impl Fn(f64) -> f64,
) -> XdmResult<Sequence> {
    match seq.first() {
        None => Ok(vec![]),
        Some(i) => {
            let a = atomize(&ctx.store.borrow(), i);
            let d = a.as_double()?;
            let r = f(d);
            Ok(vec![match a {
                Atomic::Integer(_) => Item::integer(r as i64),
                Atomic::Decimal(_) => Item::Atomic(Atomic::Decimal(r)),
                _ => Item::double(r),
            }])
        }
    }
}

enum Agg {
    Sum,
    Avg,
    Min,
    Max,
}

fn aggregate(
    ctx: &DynamicContext,
    seq: &Sequence,
    agg: Agg,
    zero: Option<&Sequence>,
) -> XdmResult<Sequence> {
    if seq.is_empty() {
        return Ok(match agg {
            Agg::Sum => match zero {
                Some(z) => z.clone(),
                None => vec![Item::integer(0)],
            },
            _ => vec![],
        });
    }
    let store = ctx.store.borrow();
    let mut all_int = true;
    let mut vals = Vec::with_capacity(seq.len());
    for i in seq {
        let a = atomize(&store, i);
        if !matches!(a, Atomic::Integer(_)) {
            all_int = false;
        }
        vals.push(a.as_double()?);
    }
    let result = match agg {
        Agg::Sum => vals.iter().sum::<f64>(),
        Agg::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
        Agg::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
        Agg::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    Ok(vec![
        if all_int && result == result.trunc() && !matches!(agg, Agg::Avg) {
            Item::integer(result as i64)
        } else {
            Item::double(result)
        },
    ])
}

fn substring(ctx: &DynamicContext, args: &[Sequence]) -> XdmResult<Sequence> {
    let s = string_arg(ctx, &args[0]);
    let chars: Vec<char> = s.chars().collect();
    let start = double_arg(ctx, &args[1])?.round();
    let len = if args.len() == 3 {
        double_arg(ctx, &args[2])?.round()
    } else {
        f64::INFINITY
    };
    let out: String = chars
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let p = (*i + 1) as f64;
            p >= start && p < start + len
        })
        .map(|(_, c)| *c)
        .collect();
    Ok(vec![Item::string(out)])
}

fn date_component(
    ctx: &DynamicContext,
    seq: &Sequence,
    func: &str,
    is_datetime: bool,
) -> XdmResult<Sequence> {
    let Some(item) = seq.first() else {
        return Ok(vec![]);
    };
    let a = atomize(&ctx.store.borrow(), item);
    let target = if is_datetime {
        TypeName::DateTime
    } else {
        TypeName::Date
    };
    let cast = a.cast_to(target)?;
    let (date, time) = match cast {
        Atomic::DateTime(dt) => (dt.date, Some(dt.time)),
        Atomic::Date(d) => (d, None),
        _ => return Err(XdmError::type_error("expected a date/dateTime")),
    };
    let v: i64 = match func {
        "year-from-date" | "year-from-dateTime" => date.year as i64,
        "month-from-date" | "month-from-dateTime" => date.month as i64,
        "day-from-date" | "day-from-dateTime" => date.day as i64,
        "hours-from-dateTime" => time.map(|t| t.hour as i64).unwrap_or(0),
        "minutes-from-dateTime" => time.map(|t| t.minute as i64).unwrap_or(0),
        "seconds-from-dateTime" => time.map(|t| t.second as i64).unwrap_or(0),
        _ => return Err(XdmError::unknown_function(func, 1)),
    };
    Ok(vec![Item::integer(v)])
}

/// `fn:deep-equal` over two sequences.
pub fn deep_equal(store: &xqib_dom::Store, a: &Sequence, b: &Sequence) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b.iter()).all(|(x, y)| match (x, y) {
        (Item::Atomic(p), Item::Atomic(q)) => value_compare(CompOp::Eq, p, q).unwrap_or(false),
        (Item::Node(p), Item::Node(q)) => deep_equal_nodes(store, *p, *q),
        _ => false,
    })
}

/// Two trees walked in lockstep: equal when their compared visits pair
/// up, each `Open` pair holding equal nodes (see [`same_node`]).
fn deep_equal_nodes(store: &xqib_dom::Store, a: xqib_dom::NodeRef, b: xqib_dom::NodeRef) -> bool {
    let (da, db) = (store.doc(a.doc), store.doc(b.doc));
    let (mut wa, mut wb) = (Walk::new(a.node), Walk::new(b.node));
    loop {
        match (compared(da, a.node, &mut wa), compared(db, b.node, &mut wb)) {
            (None, None) => return true,
            (Some(Visit::Open(x)), Some(Visit::Open(y))) if same_node(da, x, db, y) => {}
            (Some(Visit::Close(_)), Some(Visit::Close(_))) => {}
            _ => return false,
        }
    }
}

/// The next visit of `walk` (from `root`) that `deep-equal` compares: it
/// skips the comments and processing instructions among an element's
/// children. Those under a document node, and a compared root itself,
/// count.
fn compared(doc: &Document, root: NodeId, walk: &mut Walk) -> Option<Visit> {
    loop {
        let visit = walk.next(doc)?;
        match visit {
            Visit::Open(n)
                if n != root
                    && matches!(
                        doc.kind(n),
                        NodeKind::Comment { .. } | NodeKind::ProcessingInstruction { .. }
                    )
                    && doc.parent(n).is_some_and(|p| doc.kind(p).is_element()) => {}
            visit => return Some(visit),
        }
    }
}

/// Whether two nodes are equal apart from their children: the same kind,
/// name and value, and for elements the same attribute set (in any
/// order).
fn same_node(da: &Document, x: NodeId, db: &Document, y: NodeId) -> bool {
    match (da.kind(x), db.kind(y)) {
        (NodeKind::Text { value: x }, NodeKind::Text { value: y }) => x == y,
        (NodeKind::Comment { value: x }, NodeKind::Comment { value: y }) => x == y,
        (
            NodeKind::Attribute { name: nx, value: x },
            NodeKind::Attribute { name: ny, value: y },
        ) => nx == ny && x == y,
        (
            NodeKind::ProcessingInstruction {
                target: tx,
                value: x,
            },
            NodeKind::ProcessingInstruction {
                target: ty,
                value: y,
            },
        ) => tx == ty && x == y,
        (
            NodeKind::Element {
                name: nx,
                attrs: ax,
                ..
            },
            NodeKind::Element {
                name: ny,
                attrs: ay,
                ..
            },
        ) => {
            nx == ny
                && ax.len() == ay.len()
                && ax.iter().all(|&a| match da.kind(a) {
                    NodeKind::Attribute { name, value } => ay.iter().any(|&b| {
                        matches!(db.kind(b), NodeKind::Attribute { name: n, value: v }
                            if n == name && v == value)
                    }),
                    _ => false,
                })
        }
        (NodeKind::Document { .. }, NodeKind::Document { .. }) => true,
        _ => false,
    }
}

/// Constructor functions in the `xs:` namespace (`xs:integer("4")`, …).
pub fn xs_constructor(
    ctx: &DynamicContext,
    local: &str,
    args: &[Sequence],
) -> Option<XdmResult<Sequence>> {
    let ty = TypeName::from_local(local)?;
    let seq = args.first()?;
    Some(match seq.first() {
        None => Ok(vec![]),
        Some(i) => {
            let a = atomize(&ctx.store.borrow(), i);
            a.cast_to(ty).map(|v| vec![Item::Atomic(v)])
        }
    })
}

/// Helper: wraps a closure in the [`crate::context::NativeFn`] type.
pub fn native(
    f: impl Fn(&mut DynamicContext, Vec<Sequence>) -> XdmResult<Sequence> + 'static,
) -> crate::context::NativeFn {
    Rc::new(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xqib_dom::testgen::{deep_document, mix_env, on_big_stack, random_document, wide_document};
    use xqib_dom::{DocId, NodeRef, Store};

    /// The recursive comparison the lockstep walk replaced, verbatim, kept
    /// as its oracle.
    mod oracle {
        use super::*;

        pub fn deep_equal_nodes(
            store: &xqib_dom::Store,
            a: xqib_dom::NodeRef,
            b: xqib_dom::NodeRef,
        ) -> bool {
            let da = store.doc(a.doc);
            let db = store.doc(b.doc);
            match (da.kind(a.node), db.kind(b.node)) {
                (NodeKind::Text { value: x }, NodeKind::Text { value: y }) => x == y,
                (NodeKind::Comment { value: x }, NodeKind::Comment { value: y }) => x == y,
                (
                    NodeKind::Attribute { name: nx, value: x },
                    NodeKind::Attribute { name: ny, value: y },
                ) => nx == ny && x == y,
                (
                    NodeKind::ProcessingInstruction {
                        target: tx,
                        value: x,
                    },
                    NodeKind::ProcessingInstruction {
                        target: ty,
                        value: y,
                    },
                ) => tx == ty && x == y,
                (NodeKind::Element { name: nx, .. }, NodeKind::Element { name: ny, .. }) => {
                    if nx != ny {
                        return false;
                    }
                    // attributes: same set (order-insensitive)
                    let attrs_a = da.attributes(a.node);
                    let attrs_b = db.attributes(b.node);
                    if attrs_a.len() != attrs_b.len() {
                        return false;
                    }
                    for &aa in attrs_a {
                        let (an, av) = match da.kind(aa) {
                            NodeKind::Attribute { name, value } => (name, value),
                            _ => return false,
                        };
                        let found = attrs_b.iter().any(|&bb| match db.kind(bb) {
                            NodeKind::Attribute { name, value } => name == an && value == av,
                            _ => false,
                        });
                        if !found {
                            return false;
                        }
                    }
                    // children, ignoring comments/PIs
                    let ka: Vec<_> = da
                        .children(a.node)
                        .iter()
                        .copied()
                        .filter(|&c| {
                            matches!(da.kind(c), NodeKind::Element { .. } | NodeKind::Text { .. })
                        })
                        .collect();
                    let kb: Vec<_> = db
                        .children(b.node)
                        .iter()
                        .copied()
                        .filter(|&c| {
                            matches!(db.kind(c), NodeKind::Element { .. } | NodeKind::Text { .. })
                        })
                        .collect();
                    ka.len() == kb.len()
                        && ka.iter().zip(kb.iter()).all(|(&x, &y)| {
                            deep_equal_nodes(
                                store,
                                xqib_dom::NodeRef::new(a.doc, x),
                                xqib_dom::NodeRef::new(b.doc, y),
                            )
                        })
                }
                (NodeKind::Document { .. }, NodeKind::Document { .. }) => {
                    let ka = da.children(a.node);
                    let kb = db.children(b.node);
                    ka.len() == kb.len()
                        && ka.iter().zip(kb.iter()).all(|(&x, &y)| {
                            deep_equal_nodes(
                                store,
                                xqib_dom::NodeRef::new(a.doc, x),
                                xqib_dom::NodeRef::new(b.doc, y),
                            )
                        })
                }
                _ => false,
            }
        }
    }

    /// `doc` with every element's attributes in reverse order and the
    /// comments and processing instructions among element children
    /// detached: deep-equal to `doc` node for node, though not identical.
    fn variant(mut doc: Document) -> Document {
        for i in 0..doc.len() {
            let n = NodeId(i as u32);
            let attrs: Vec<NodeId> = doc.attributes(n).iter().rev().copied().collect();
            if !attrs.is_empty() {
                doc.restore_attributes(n, &attrs).unwrap();
            }
            let skipped = matches!(
                doc.kind(n),
                NodeKind::Comment { .. } | NodeKind::ProcessingInstruction { .. }
            );
            if skipped && doc.parent(n).is_some_and(|p| doc.kind(p).is_element()) {
                doc.detach(n).unwrap();
            }
        }
        doc
    }

    /// Compares every node of `a` with every node of `a` and `b`; returns
    /// whether the two document nodes are deep-equal.
    fn check(a: Document, b: Document) -> bool {
        let mut s = Store::new();
        let (da, db) = (s.add_document(a, None), s.add_document(b, None));
        let nodes = |d: DocId| (0..s.doc(d).len()).map(move |i| NodeRef::new(d, NodeId(i as u32)));
        for x in nodes(da) {
            for y in nodes(db).chain(nodes(da)) {
                assert_eq!(
                    deep_equal_nodes(&s, x, y),
                    oracle::deep_equal_nodes(&s, x, y),
                    "{x:?} vs {y:?}"
                );
            }
        }
        deep_equal_nodes(&s, s.root(da), s.root(db))
    }

    proptest! {
        #[test]
        fn lockstep_walk_matches_the_recursive_oracle(seed in any::<u64>()) {
            let seed = mix_env(seed);
            prop_assert!(check(random_document(seed), variant(random_document(seed))));
            check(random_document(seed), random_document(seed ^ 1));
            prop_assert!(check(wide_document(seed, 6), variant(wide_document(seed, 6))));
        }
    }

    #[test]
    fn deep_chains_match_the_recursive_oracle() {
        for k in 0..2 {
            // the recursive oracle needs more than a test thread's stack
            on_big_stack(move || {
                let mut s = Store::new();
                let a = s.add_document(deep_document(mix_env(k), 10_000), None);
                let b = s.add_document(variant(deep_document(mix_env(k), 10_000)), None);
                let c = s.add_document(deep_document(mix_env(k) ^ 1, 10_000), None);
                for (x, y) in [(a, b), (a, c), (b, a)] {
                    let (x, y) = (s.root(x), s.root(y));
                    assert_eq!(
                        deep_equal_nodes(&s, x, y),
                        oracle::deep_equal_nodes(&s, x, y)
                    );
                }
                assert!(deep_equal_nodes(&s, s.root(a), s.root(b)));
            });
        }
    }
}
