//! Differential property tests for the compiled query pipeline: across
//! random queries × random documents × random fuel budgets, the plan
//! evaluator (`plan::lower` + `exec`) must be observationally identical to
//! the tree-walking interpreter — same result sequence, same dynamic error
//! codes, same applied-update effects. The single sanctioned divergence is
//! one-sided: under a fuel budget a streamed plan may *succeed* where the
//! interpreter preempts, but whenever it completes it must produce the
//! interpreter's unlimited-fuel answer, and whenever it fails it must fail
//! with the fuel code.
//!
//! Deterministic CI matrix hook: `XQIB_PLAN_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! query space while any single failure stays reproducible.

use proptest::prelude::*;
use xqib_dom::store::shared_store;
use xqib_dom::SharedStore;
use xqib_xquery::plan::lower;
use xqib_xquery::plancache::{compile_plan, static_fingerprint, PlanCache};
use xqib_xquery::runtime::{self, ModuleRegistry};
use xqib_xquery::DynamicContext;

fn env_seed() -> u64 {
    std::env::var("XQIB_PLAN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// splitmix64, same shape as the other fault-matrix suites: proptest
/// drives the top-level seed, this fans it out into shaping decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &'a [&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}

// ----- generators -----------------------------------------------------------

const TAGS: [&str; 4] = ["a", "b", "c", "d"];
const IDS: [&str; 3] = ["k1", "k2", "k3"];

/// A small random element tree with attributes and numeric text.
fn gen_doc(rng: &mut Rng) -> String {
    fn node(rng: &mut Rng, out: &mut String, depth: u64) {
        let tag = rng.pick(&TAGS);
        out.push('<');
        out.push_str(tag);
        if rng.below(2) == 0 {
            out.push_str(&format!(" id=\"{}\"", rng.pick(&IDS)));
        }
        out.push('>');
        let kids = rng.below(if depth == 0 { 1 } else { 4 });
        if kids == 0 {
            out.push_str(&rng.below(100).to_string());
        } else {
            for _ in 0..kids {
                node(rng, out, depth - 1);
            }
        }
        out.push_str(&format!("</{tag}>"));
    }
    let mut xml = String::from("<r>");
    for _ in 0..(1 + rng.below(4)) {
        node(rng, &mut xml, 3);
    }
    xml.push_str("</r>");
    xml
}

fn gen_step(rng: &mut Rng) -> String {
    let sep = if rng.below(3) == 0 { "//" } else { "/" };
    let test = match rng.below(6) {
        0 => "*".to_string(),
        1 => "@id".to_string(),
        _ => rng.pick(&TAGS).to_string(),
    };
    let pred = match rng.below(8) {
        0 => "[1]".to_string(),
        1 => "[last()]".to_string(),
        2 => format!("[@id = '{}']", rng.pick(&IDS)),
        3 => format!("[{}]", rng.pick(&TAGS)),
        4 => format!("[position() < {}]", 1 + rng.below(4)),
        _ => String::new(),
    };
    // predicates on attribute steps are legal but rarely interesting
    if test == "@id" {
        format!("{sep}{test}")
    } else {
        format!("{sep}{test}{pred}")
    }
}

fn gen_path(rng: &mut Rng) -> String {
    let mut p = String::from("doc('t.xml')");
    for _ in 0..(1 + rng.below(3)) {
        p.push_str(&gen_step(rng));
    }
    p
}

fn gen_expr(rng: &mut Rng, depth: u64) -> String {
    if depth == 0 {
        return match rng.below(3) {
            0 => rng.below(20).to_string(),
            1 => format!("'{}'", rng.pick(&IDS)),
            _ => gen_path(rng),
        };
    }
    match rng.below(14) {
        0 => format!(
            "{} {} {}",
            gen_expr(rng, depth - 1),
            rng.pick(&["+", "-", "*"]),
            gen_expr(rng, depth - 1)
        ),
        1 => format!("{} to {}", rng.below(8), rng.below(12)),
        2 => format!(
            "{} {} {}",
            gen_expr(rng, depth - 1),
            rng.pick(&["=", "!=", "<", ">="]),
            gen_expr(rng, depth - 1)
        ),
        3 => format!("exists({})", gen_path(rng)),
        4 => format!("empty({})", gen_path(rng)),
        5 => format!("count({})", gen_path(rng)),
        6 => format!("not({})", gen_expr(rng, depth - 1)),
        7 => {
            let src = if rng.below(2) == 0 {
                gen_path(rng)
            } else {
                format!("{} to {}", rng.below(5), rng.below(9))
            };
            let wher = match rng.below(3) {
                0 => format!(" where $v{d}/@id = '{}'", rng.pick(&IDS), d = depth),
                1 => format!(" where $v{d} = $v{d}", d = depth),
                _ => String::new(),
            };
            let order = if rng.below(3) == 0 {
                format!(" order by $v{d} descending", d = depth)
            } else {
                String::new()
            };
            format!(
                "for $v{d} in {src}{wher}{order} return ($v{d}, {})",
                gen_expr(rng, depth - 1),
                d = depth
            )
        }
        8 => format!(
            "if ({}) then {} else {}",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        9 => format!(
            "({}, {})",
            gen_expr(rng, depth - 1),
            gen_expr(rng, depth - 1)
        ),
        10 => format!(
            "some $s in {} satisfies $s = {}",
            gen_path(rng),
            gen_expr(rng, depth - 1)
        ),
        12 => gen_ctor(rng, depth - 1),
        13 => {
            // a constructed node as a path start
            let mut p = format!("({})", gen_ctor(rng, depth - 1));
            for _ in 0..(1 + rng.below(2)) {
                p.push_str(&gen_step(rng));
            }
            p
        }
        _ => format!("sum(({}))", gen_expr(rng, depth - 1)),
    }
}

/// A direct element constructor: attribute value templates whose enclosed
/// parts may be empty or multi-item, and content mixing literal text,
/// atomics, nodes copied out of `t.xml`, empty sequences and (while depth
/// remains) nested constructors.
fn gen_ctor(rng: &mut Rng, depth: u64) -> String {
    let tag = rng.pick(&TAGS);
    let sub = depth.saturating_sub(1);
    let mut attrs = String::new();
    for name in ["id", "n"] {
        if rng.below(2) == 0 {
            continue;
        }
        let avt = match rng.below(4) {
            0 => "{()}".to_string(),
            1 => format!("x{{{} to {}}}y", rng.below(3), rng.below(5)),
            2 => format!("{{{}}}", gen_path(rng)),
            _ => format!("{{{}}}-{{{}}}", gen_expr(rng, sub), gen_expr(rng, sub)),
        };
        attrs.push_str(&format!(" {name}=\"{avt}\""));
    }
    let mut content = String::new();
    for _ in 0..rng.below(4) {
        match rng.below(6) {
            0 => content.push_str(rng.pick(&["t", "a b", "{{x}}"])),
            1 => content.push_str("{()}"),
            2 => content.push_str(&format!("{{{}}}", gen_path(rng))),
            3 => content.push_str(&format!("{{({}, '{}')}}", rng.below(9), rng.pick(&IDS))),
            4 => content.push_str(&format!("{{{}}}", gen_expr(rng, sub))),
            _ if depth > 0 => content.push_str(&gen_ctor(rng, sub)),
            _ => content.push_str("<e/>"),
        }
    }
    format!("<{tag}{attrs}>{content}</{tag}>")
}

/// Randomised updating statements over the generated document, exercising
/// the PUL through the compiled pipeline.
fn gen_update(rng: &mut Rng) -> String {
    let target = format!("(doc('t.xml')//{})[1]", rng.pick(&TAGS));
    match rng.below(4) {
        0 => format!("insert node <n{}/> into {target}", rng.below(5)),
        1 => format!("delete node {target}"),
        2 => format!("rename node {target} as 'z{}'", rng.below(5)),
        _ => format!("replace value of node {target} with '{}'", rng.below(50)),
    }
}

// ----- harness --------------------------------------------------------------

fn store_with_doc(xml: &str) -> SharedStore {
    let store = shared_store();
    let doc = xqib_dom::parse_document(xml).expect("generated doc parses");
    store.borrow_mut().add_document(doc, Some("t.xml"));
    store
}

/// Runs on the given engine; returns the rendered result (or the error
/// code) plus the serialized document afterwards (update visibility).
fn run(
    src: &str,
    xml: &str,
    fuel: Option<u64>,
    use_plan: bool,
) -> (Result<String, String>, String) {
    let store = store_with_doc(xml);
    let result = (|| {
        let q = runtime::compile(src).map_err(|e| e.code)?;
        let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
        ctx.set_fuel(fuel);
        let r = if use_plan {
            lower(&q).execute(&mut ctx)
        } else {
            q.execute(&mut ctx)
        };
        r.map(|seq| runtime::render_sequence(&ctx, &seq))
            .map_err(|e| e.code)
    })();
    let after = {
        let s = store.borrow();
        let id = s.doc_by_uri("t.xml").expect("doc survives");
        xqib_dom::serialize::serialize_document(s.doc(id))
    };
    (result, after)
}

proptest! {
    /// Unlimited fuel: results, error codes, and document effects all
    /// match, item for item.
    #[test]
    fn compiled_matches_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let xml = gen_doc(&mut rng);
        let q = gen_expr(&mut rng, 3);
        let (ir, idoc) = run(&q, &xml, None, false);
        let (cr, cdoc) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "result divergence on `{}` over {}", q, xml);
        prop_assert_eq!(&idoc, &cdoc, "document divergence on `{}`", q);
    }

    /// Updating statements: the applied pending-update list leaves both
    /// stores serializing identically.
    #[test]
    fn update_effects_match(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let xml = gen_doc(&mut rng);
        let q = format!("{}, 0", gen_update(&mut rng));
        let (ir, idoc) = run(&q, &xml, None, false);
        let (cr, cdoc) = run(&q, &xml, None, true);
        prop_assert_eq!(&ir, &cr, "update result divergence on `{}`", q);
        prop_assert_eq!(&idoc, &cdoc, "update effect divergence on `{}` over {}", q, xml);
    }

    /// Fuel budgets: the compiled engine either reproduces the oracle's
    /// unlimited-fuel answer or raises the preemption code — never a
    /// third thing. (Streaming may legitimately *save* fuel; it must never
    /// spend less and answer differently.)
    #[test]
    fn budgeted_run_is_oracle_result_or_preemption(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x94D0_49BB_1331_11EB));
        let xml = gen_doc(&mut rng);
        let q = gen_expr(&mut rng, 3);
        let budget = 1 + rng.below(3000);
        let (oracle, _) = run(&q, &xml, None, false);
        let (budgeted, _) = run(&q, &xml, Some(budget), true);
        match &budgeted {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(
                other, &oracle,
                "budgeted divergence on `{}` with {} fuel", q, budget
            ),
        }
        // the same one-sided contract holds for the interpreter itself
        let (ibudgeted, _) = run(&q, &xml, Some(budget), false);
        match &ibudgeted {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(other, &oracle, "interpreter budget contract on `{}`", q),
        }
    }
}

/// The plan-cache invalidation regression: a cached plan must not survive
/// a static-context change. Re-registering a module under the same URI
/// changes the fingerprint, so the stale plan (which baked in the old
/// function body) stops matching.
#[test]
fn cached_plan_does_not_survive_static_context_change() {
    let mut reg = ModuleRegistry::new();
    reg.register_source(
        r#"module namespace m = "urn:v";
           declare function m:v() { 1 };"#,
    )
    .unwrap();
    let src = r#"import module namespace m = "urn:v"; m:v()"#;
    let mut cache = PlanCache::new(8);

    let run_cached = |cache: &mut PlanCache, reg: &ModuleRegistry| {
        let fp = static_fingerprint(reg, false);
        let plan = cache
            .get_or_compile(src, fp, || compile_plan(src, reg, false))
            .unwrap();
        let mut ctx = DynamicContext::new(shared_store(), plan.static_context().clone());
        let out = plan.execute(&mut ctx).unwrap();
        runtime::render_sequence(&ctx, &out)
    };

    assert_eq!(run_cached(&mut cache, &reg), "1");
    assert_eq!(run_cached(&mut cache, &reg), "1");
    assert_eq!(cache.stats().hits, 1, "second lookup is a cache hit");

    // the static context changes: same URI, new function body
    reg.register_source(
        r#"module namespace m = "urn:v";
           declare function m:v() { 2 };"#,
    )
    .unwrap();
    assert_eq!(
        run_cached(&mut cache, &reg),
        "2",
        "stale plan served after module re-registration"
    );
    assert_eq!(cache.stats().hits, 1, "new fingerprint must miss");

    // explicit epoch invalidation also recompiles
    cache.invalidate();
    assert_eq!(run_cached(&mut cache, &reg), "2");
    assert_eq!(cache.stats().invalidations, 1);
    assert_eq!(cache.stats().misses, 3);
}
