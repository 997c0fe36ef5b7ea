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
//! Updating programs — the update primitives, scripting blocks and declared
//! functions — are compared one level deeper: the wire encoding of every
//! pending update list each tier builds, and the document after the final
//! list is applied and after an apply that an injected crash point rolled
//! back.
//!
//! Deterministic CI matrix hook: `XQIB_PLAN_SEED` is mixed into every
//! generated seed, so each matrix entry explores a different region of the
//! query space while any single failure stays reproducible.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use xqib_dom::attr_index::attr_owners_naive;
use xqib_dom::order::stats;
use xqib_dom::store::shared_store;
use xqib_dom::{QName, SharedStore};
use xqib_xquery::ast::Statement;
use xqib_xquery::plan::{lower, ExprPlan};
use xqib_xquery::plancache::{compile_plan, static_fingerprint, PlanCache};
use xqib_xquery::pul::CrashPoint;
use xqib_xquery::runtime::{self, ModuleRegistry};
use xqib_xquery::{eval, wire, DynamicContext};

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
    match rng.below(24) {
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
            "{} $s in {} satisfies $s = {}",
            rng.pick(&["some", "every"]),
            gen_path(rng),
            gen_expr(rng, depth - 1)
        ),
        11 => format!(
            "typeswitch ({}) case xs:integer return 'int' case element() return 'el' \
             case attribute()+ return 'at' case $s as xs:string+ return count($s) \
             default $t return ($t, {})",
            gen_expr(rng, depth - 1),
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
        14 => {
            // a variable-valued attribute probe: string-like bindings are
            // probed, anything else tests the predicate as written
            let value = match rng.below(6) {
                0 => format!("'{}'", rng.pick(&IDS)),
                1 => format!("('{}', '{}')", rng.pick(&IDS), rng.pick(&IDS)),
                2 => format!("xs:anyURI('{}')", rng.pick(&IDS)),
                3 => rng.below(3).to_string(),
                4 => "()".to_string(),
                _ => format!("doc('t.xml')//{}/@id", rng.pick(&TAGS)),
            };
            format!(
                "let $p := {value} return doc('t.xml')//{}[@id = $p]{}",
                rng.pick(&TAGS),
                gen_step(rng)
            )
        }
        15 => {
            let e = gen_expr(rng, depth - 1);
            match rng.below(4) {
                0 => format!("({e}) instance of {}", gen_seq_type(rng)),
                1 => format!("({e}) treat as {}", gen_seq_type(rng)),
                2 => format!(
                    "({e}) castable as xs:{}",
                    rng.pick(&["integer", "double", "string"])
                ),
                _ => format!(
                    "({e}) cast as xs:{}?",
                    rng.pick(&["integer", "double", "string"])
                ),
            }
        }
        16 => {
            // mostly two paths over the one document, so the operands
            // overlap and the four operators give different answers
            let right = if rng.below(4) == 0 {
                gen_expr(rng, depth - 1)
            } else {
                gen_path(rng)
            };
            format!(
                "({}) {} ({right})",
                gen_path(rng),
                rng.pick(&["|", "union", "intersect", "except"]),
            )
        }
        17 => format!(
            "({})[{}] {} ({})[{}]",
            gen_path(rng),
            1 + rng.below(2),
            rng.pick(&["is", "<<", ">>"]),
            gen_path(rng),
            1 + rng.below(2)
        ),
        18 => gen_computed(rng, depth - 1),
        19 => {
            let src = if rng.below(2) == 0 {
                format!("({})[1]", gen_path(rng))
            } else {
                gen_ctor(rng, depth - 1)
            };
            let modify = match rng.below(4) {
                0 => "insert node <z/> into $c".to_string(),
                1 => "delete nodes $c/*".to_string(),
                2 => format!("rename node $c as '{}'", rng.pick(&TAGS)),
                _ => format!("replace value of node $c with '{}'", rng.below(9)),
            };
            format!("copy $c := {src} modify {modify} return ($c, count(doc('t.xml')//*))")
        }
        20 => format!(
            "{} ftcontains {}",
            gen_expr(rng, depth - 1),
            gen_ft_selection(rng, 2)
        ),
        21 => gen_named(rng, true),
        22 => gen_identity(rng, depth - 1, false),
        _ => format!("sum(({}))", gen_expr(rng, depth - 1)),
    }
}

/// The prolog [`gen_identity`]'s `global` shapes run under: a global bound
/// to a constructed element, and a function that returns it.
const IDENTITY_PROLOG: &str = "declare variable $g := <g><h/>{1}</g>;\n\
                               declare function local:g() { $g };\n";

/// Constructor shapes whose answer turns on node identity, where an
/// enclosing constructor must copy what something else can still reach
/// and may adopt what only it can: a `let`-bound constructor used twice
/// and read through `..`, `is` and `root()`; an `order by` FLWOR, an
/// `if`/`else` and a `typeswitch` returning constructors; a function
/// returning a global-bound constructor (with `global`, under
/// [`IDENTITY_PROLOG`]); and `copy`/`modify` of a constructed node.
fn gen_identity(rng: &mut Rng, depth: u64, global: bool) -> String {
    let ctor = gen_ctor(rng, depth);
    let reads = "count($c/..), root($c) is $c, $c is $c, count(root($c)//*)";
    let shape = match rng.below(if global { 6 } else { 5 }) {
        0 => format!(
            "let $c := {ctor} return (<w>{{$c}}{{$c}}</w>, \
             (<v>{{$c, $c}}</v>)/*[2] is $c, {reads})"
        ),
        1 => format!(
            "let $w := <w>{{for $i in {} to {} order by $i descending \
             return <i n=\"{{$i}}\">{ctor}</i>}}</w> \
             return ($w, count($w/*/..), for $c in $w/*/* return ({reads}))",
            rng.below(3),
            rng.below(4)
        ),
        2 => format!(
            "let $w := <w>{{if ({}) then {ctor} else ({}, 'none')}}</w> \
             return ($w, $w/*[1]/.. is $w, root($w/node()[1]) is $w)",
            gen_expr(rng, 1),
            gen_ctor(rng, depth)
        ),
        3 => format!(
            "let $w := <w>{{typeswitch ({}) case $n as node() return ({ctor}, $n) \
             default return <d/>}}</w> \
             return ($w, for $c in $w/* return ({reads}))",
            gen_expr(rng, 1)
        ),
        4 => format!(
            "let $s := {ctor} return copy $c := $s modify insert node <z/> into $c \
             return (<w>{{$c}}</w>, {reads}, $c is $s, count($s/*), count($s/..))"
        ),
        _ => format!(
            "let $c := local:g() return (<w>{{local:g()}}{{$c/h}}</w>, {reads}, \
             local:g() is $g, count($g/..), (<w>{{$g}}</w>)/g is $g)"
        ),
    };
    format!("({shape})")
}

/// A named descendant step — `//t`, `descendant::t` or
/// `descendant-or-self::t` — from the document node and from every node a
/// `for` or a quantifier binds, under early exits (`[1]`, `exists`, `some`)
/// and position-free predicates. The element-name index answers a name's
/// second probe at a document version, so each query probes its names
/// more than once. `attr_first` admits an `[@id = …]` predicate on a step
/// from the document node, which the attribute-value index answers first.
fn gen_named(rng: &mut Rng, attr_first: bool) -> String {
    let tag = rng.pick(&TAGS);
    let step = format!(
        "{}{}",
        rng.pick(&["//", "/descendant::", "/descendant-or-self::"]),
        rng.pick(&TAGS)
    );
    let id = rng.pick(&IDS);
    let pred = match rng.below(6) {
        0 => "[1]".to_string(),
        1 => "[2]".to_string(),
        2 => "[last()]".to_string(),
        3 => format!("[@id = '{id}']"),
        4 => format!("[{}]", rng.pick(&TAGS)),
        _ => String::new(),
    };
    let top = if attr_first || !pred.starts_with("[@") {
        pred.as_str()
    } else {
        ""
    };
    match rng.below(7) {
        0 => format!("for $v in doc('t.xml')//{tag} return $v{step}{pred}"),
        1 => format!("for $v in doc('t.xml')//{tag} return exists($v{step}{pred})"),
        2 => format!("for $v in doc('t.xml')//{tag} return count($v{step}{pred})"),
        3 => format!("some $v in doc('t.xml')//{tag} satisfies exists($v{step}{pred})"),
        4 => format!("every $v in doc('t.xml')//{tag} satisfies $v{step}{pred}/@id = '{id}'"),
        5 => format!("doc('t.xml')//{tag}{step}{pred}"),
        _ => format!(
            "(doc('t.xml'){step}{top}, exists(doc('t.xml'){step}), (doc('t.xml'){step})[1])"
        ),
    }
}

/// Evaluates `src` on the compiled tier over an existing store; returns
/// the rendered result (or the error code) and the fuel it charged.
fn fuel_on(store: &SharedStore, src: &str, fuel: Option<u64>) -> (Result<String, String>, u64) {
    let q = runtime::compile(src).expect("generated query compiles");
    let mut ctx = DynamicContext::new(store.clone(), q.sctx.clone());
    ctx.set_fuel(fuel);
    let r = lower(&q)
        .execute(&mut ctx)
        .map(|seq| runtime::render_sequence(&ctx, &seq))
        .map_err(|e| e.code);
    (r, ctx.fuel_used)
}

/// A sequence type for `instance of` and `treat as`.
fn gen_seq_type(rng: &mut Rng) -> &'static str {
    rng.pick(&[
        "xs:integer",
        "xs:string*",
        "element()",
        "element()+",
        "attribute()?",
        "node()*",
        "item()*",
        "empty-sequence()",
    ])
}

/// A computed constructor of each kind: static and dynamic names, and
/// content that may be empty, atomic, nodes or nested constructors.
fn gen_computed(rng: &mut Rng, depth: u64) -> String {
    let content = match rng.below(3) {
        0 => gen_expr(rng, depth),
        1 => gen_path(rng),
        _ => String::new(),
    };
    let name = if rng.below(3) == 0 {
        format!("{{'{}'}}", rng.pick(&TAGS))
    } else {
        rng.pick(&TAGS).to_string()
    };
    match rng.below(7) {
        0 | 1 => format!("element {name} {{{content}}}"),
        2 => format!("<w>{{attribute {name} {{{content}}}}}</w>"),
        3 => format!("text {{{content}}}"),
        4 => format!("comment {{{content}}}"),
        5 => format!("processing-instruction {name} {{{content}}}"),
        _ => format!("(document {{{}}})/*", gen_ctor(rng, depth)),
    }
}

/// A full-text selection: words from literals or expressions, with
/// `ftand`/`ftor`/`ftnot` and match options.
fn gen_ft_selection(rng: &mut Rng, depth: u64) -> String {
    let words = match rng.below(3) {
        0 => format!("'{}'", rng.below(100)),
        1 => format!("'{}'", rng.pick(&IDS)),
        _ => format!("{{{}}}", gen_path(rng)),
    };
    let option = rng.pick(&["", " with stemming", " with wildcards", " case sensitive"]);
    if depth == 0 {
        return format!("{words}{option}");
    }
    match rng.below(4) {
        0 => format!("{words}{option} ftand {}", gen_ft_selection(rng, depth - 1)),
        1 => format!(
            "({words} ftor {}){option}",
            gen_ft_selection(rng, depth - 1)
        ),
        2 => format!("{words} ftand ftnot {}", gen_ft_selection(rng, 0)),
        _ => format!("{words}{option}"),
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

/// Declared functions every updating program may call: recursion, typed
/// parameters, an updating body, `exit with` from a sequential body, and a
/// runaway recursion the depth guard must stop on both tiers.
const FUNCTIONS: &str = r#"
declare updating function local:ins($t, $k as xs:integer) {
  insert node <f k="{$k}"/> into $t
};
declare function local:sum($n as xs:integer) {
  if ($n le 0) then 0 else $n + local:sum($n - 1)
};
declare updating function local:chain($n as xs:integer) {
  if ($n le 0) then ()
  else (insert node <c>{$n}</c> into doc('t.xml')/r, local:chain($n - 1))
};
declare sequential function local:ex($n) {
  if ($n gt 2) then exit with concat('big', $n) else ();
  insert node <e n="{$n}"/> into doc('t.xml')/r;
  'small'
};
declare function local:str($s as xs:string) { concat($s, '!') };
declare function local:runaway($n) { local:runaway($n + 1) };
"#;

/// An update target: usually one node, sometimes none or several (the
/// `XUDY0027`/`XUTY0008` paths), sometimes an atomic.
fn gen_target(rng: &mut Rng) -> String {
    match rng.below(8) {
        0 => format!("doc('t.xml')//{}", rng.pick(&TAGS)),
        1 => "doc('t.xml')/r".to_string(),
        2 => format!("doc('t.xml')//*[@id = '{}']", rng.pick(&IDS)),
        3 => "'atomic'".to_string(),
        _ => format!("(doc('t.xml')//{})[1]", rng.pick(&TAGS)),
    }
}

/// Inserted or replacing content: constructed elements with enclosed
/// parts, copies of existing nodes, attributes, or an atomic (a type error).
fn gen_source(rng: &mut Rng) -> String {
    match rng.below(6) {
        0 => format!("<n{}/>", rng.below(5)),
        1 => format!(
            "<m id=\"{{'{}'}}\">{{doc('t.xml')//{}[1]}}</m>",
            rng.pick(&IDS),
            rng.pick(&TAGS)
        ),
        2 => format!("doc('t.xml')//{}", rng.pick(&TAGS)),
        3 => format!("attribute x{} {{'{}'}}", rng.below(3), rng.below(9)),
        4 => format!("(<p/>, <q>{}</q>)", rng.below(9)),
        _ => "42".to_string(),
    }
}

/// One update primitive, every form the parser accepts.
fn gen_primitive(rng: &mut Rng) -> String {
    let t = gen_target(rng);
    match rng.below(10) {
        0 => format!("insert node {} into {t}", gen_source(rng)),
        1 => format!("insert node {} as first into {t}", gen_source(rng)),
        2 => format!("insert nodes {} as last into {t}", gen_source(rng)),
        3 => format!("insert node {} before {t}", gen_source(rng)),
        4 => format!("insert node {} after {t}", gen_source(rng)),
        5 => format!("delete nodes {t}"),
        6 => format!("replace node {t} with {}", gen_source(rng)),
        7 => format!(
            "replace value of node {t} with ({}, '{}')",
            rng.below(9),
            rng.pick(&IDS)
        ),
        8 => format!("rename node {t} as 'z{}'", rng.below(3)),
        _ => format!("rename node {t} as (concat('y', {}))", rng.below(3)),
    }
}

/// A call into [`FUNCTIONS`].
fn gen_call(rng: &mut Rng) -> String {
    match rng.below(12) {
        0 | 1 => format!("local:sum({})", rng.below(6)),
        2 | 3 => format!("local:chain({})", rng.below(4)),
        4 | 5 => format!("local:ex({})", rng.below(5)),
        6 => format!("local:str('{}')", rng.pick(&IDS)),
        7 => format!("local:str({})", rng.below(9)),
        8 => "local:runaway(0)".to_string(),
        _ => format!("local:ins({}, {})", gen_target(rng), rng.below(9)),
    }
}

/// A scripting block: variable declarations, assignment, `while` loops
/// whose bodies update, nested blocks and function calls. Pending updates
/// become visible between statements.
fn gen_block(rng: &mut Rng, depth: u64) -> String {
    let mut stmts = vec![format!("declare variable $i := {}", rng.below(2))];
    for _ in 0..(1 + rng.below(3)) {
        stmts.push(match rng.below(6) {
            0 => gen_primitive(rng),
            1 => format!(
                "while ($i < {}) {{ {}; set $i := $i + 1; }}",
                rng.below(4),
                gen_primitive(rng)
            ),
            2 if depth > 0 => gen_block(rng, depth - 1),
            3 => format!("set $i := $i + {}", rng.below(3)),
            4 => gen_call(rng),
            _ => format!(
                "declare variable $n := count(doc('t.xml')//{})",
                rng.pick(&TAGS)
            ),
        });
    }
    stmts.push(match rng.below(3) {
        0 => gen_primitive(rng),
        1 => gen_call(rng),
        _ => "$i".to_string(),
    });
    format!("{{ {} }}", stmts.join("; "))
}

/// An updating program body: a block, a primitive, a call, or a sequence
/// mixing them (one snapshot: nothing is applied until the end).
fn gen_updating(rng: &mut Rng) -> String {
    match rng.below(5) {
        0 | 1 => gen_block(rng, 2),
        2 => gen_primitive(rng),
        3 => gen_call(rng),
        _ => format!(
            "({}, {}, {})",
            gen_primitive(rng),
            gen_call(rng),
            gen_primitive(rng)
        ),
    }
}

/// Attribute names the index checks probe: the generated `@id`, an
/// inserted `attribute x0`, and the renames [`gen_attr_update`] draws.
const PROBE_NAMES: [&str; 3] = ["id", "x0", "y0"];
/// Attribute values the index checks probe.
const PROBE_VALUES: [&str; 6] = ["k1", "k2", "k3", "0", "1", "2"];

/// An update that writes attributes in place — `replace value of` and
/// `rename` on an `@id` or `@x0` — beside inserts and deletes of owners.
fn gen_attr_update(rng: &mut Rng) -> String {
    let attr = format!(
        "(doc('t.xml')//@{})[{}]",
        rng.pick(&["id", "x0"]),
        1 + rng.below(3)
    );
    match rng.below(5) {
        0 => format!("replace value of node {attr} with '{}'", rng.pick(&IDS)),
        1 => format!("replace value of node {attr} with '{}'", rng.below(3)),
        2 => format!("rename node {attr} as '{}'", rng.pick(&PROBE_NAMES)),
        3 => format!(
            "insert node attribute x0 {{'{}'}} into (doc('t.xml')//{})[1]",
            rng.below(3),
            rng.pick(&TAGS)
        ),
        _ => format!(
            "delete node (doc('t.xml')//*[@id = '{}'])[1]",
            rng.pick(&IDS)
        ),
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
    let result = eval_on(&store, src, fuel, use_plan);
    let after = {
        let s = store.borrow();
        let id = s.doc_by_uri("t.xml").expect("doc survives");
        xqib_dom::serialize::serialize_document(s.doc(id))
    };
    (result, after)
}

/// Evaluates `src` over an existing store on one tier; returns the
/// rendered result or the error code.
fn eval_on(
    store: &SharedStore,
    src: &str,
    fuel: Option<u64>,
    use_plan: bool,
) -> Result<String, String> {
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
}

/// What one tier did with an updating program.
#[derive(Debug, PartialEq)]
struct UpdateRun {
    /// the rendered value, or the error code
    result: Result<String, String>,
    /// wire encoding of every pending update list built: those applied
    /// between statements, then the final one
    puls: Vec<Vec<u8>>,
    /// the document before the final list is applied
    before: String,
    /// how applying the final list ended
    apply: Result<(), String>,
    /// the document after that apply (or its rollback)
    after: String,
}

/// Evaluates `{FUNCTIONS} {body}` on one tier — the interpreter's
/// `eval_expr`, or the lowered plan with lowered function bodies — leaving
/// the final pending update list for the harness to encode and apply
/// under `crash`.
fn run_updating(
    body: &str,
    xml: &str,
    use_plan: bool,
    fuel: Option<u64>,
    crash: CrashPoint,
) -> UpdateRun {
    run_updating_on(&store_with_doc(xml), body, use_plan, fuel, crash)
}

/// [`run_updating`] over an existing store holding `t.xml`.
fn run_updating_on(
    store: &SharedStore,
    body: &str,
    use_plan: bool,
    fuel: Option<u64>,
    crash: CrashPoint,
) -> UpdateRun {
    let src = format!("{FUNCTIONS}\n{body}");
    let q = runtime::compile(&src)
        .unwrap_or_else(|e| panic!("`{body}` does not compile: {}", e.message));
    let [Statement::Expr(e)] = &q.module.body[..] else {
        panic!("one expression statement: {body}");
    };
    let plan = lower(&q);
    let sctx = if use_plan {
        plan.static_context().clone()
    } else {
        q.sctx.clone()
    };
    let journal = Rc::new(RefCell::new(Vec::new()));
    let mut ctx = DynamicContext::new(store.clone(), sctx.clone());
    ctx.pul_journal = Some(journal.clone());
    ctx.set_fuel(fuel);
    let r = if use_plan {
        ExprPlan::lower(&sctx, e).eval(&mut ctx)
    } else {
        eval::eval_expr(&mut ctx, e)
    };
    let result = r
        .map(|seq| runtime::render_sequence(&ctx, &seq))
        .map_err(|e| e.code);
    ctx.set_fuel(None);
    let serialized = || {
        let s = store.borrow();
        let id = s.doc_by_uri("t.xml").expect("doc survives");
        xqib_dom::serialize::serialize_document(s.doc(id))
    };
    let mut puls = journal.take();
    let before = serialized();
    let pul = ctx.pul.take();
    let apply = if result.is_ok() {
        puls.push(wire::encode_pul(&store.borrow(), &pul).expect("pending list encodes"));
        pul.apply_with_crash(&mut store.borrow_mut(), crash)
            .map_err(|e| e.code)
    } else {
        Ok(())
    };
    UpdateRun {
        result,
        puls,
        before,
        apply,
        after: serialized(),
    }
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

    /// Constructed identity: where the plan tier adopts content the
    /// lowering proved fresh and copies the rest, every answer that turns
    /// on node identity is the oracle's, which copies all enclosed
    /// content.
    #[test]
    fn constructed_identity_matches_interpreter(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0x2545_F491_4F6C_DD1D));
        let xml = gen_doc(&mut rng);
        let q = format!("{IDENTITY_PROLOG}{}", gen_identity(&mut rng, 2, true));
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

    /// Update primitives, blocks and declared functions: both tiers build
    /// the same pending update lists (byte for byte on the wire), raise the
    /// same error codes, and leave the same document after the final apply
    /// and after an apply that an injected crash rolled back — where the
    /// rollback restores the document exactly. Under a fuel budget the
    /// compiled tier answers like the oracle or raises the preemption code.
    #[test]
    fn updating_programs_match(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let xml = gen_doc(&mut rng);
        let body = gen_updating(&mut rng);
        for crash in [CrashPoint::none(), CrashPoint::at(rng.below(4))] {
            let i = run_updating(&body, &xml, false, None, crash);
            let c = run_updating(&body, &xml, true, None, crash);
            prop_assert_eq!(&i, &c, "tier divergence on `{}` over {}", body, xml);
            if i.apply.is_err() {
                prop_assert_eq!(&i.before, &i.after, "rollback left a trace: `{}`", body);
            }
        }
        let budget = 1 + rng.below(400);
        let oracle = run_updating(&body, &xml, false, None, CrashPoint::none());
        let budgeted = run_updating(&body, &xml, true, Some(budget), CrashPoint::none());
        match &budgeted.result {
            Err(code) if code == "XQIB0011" => {}
            _ => prop_assert_eq!(&budgeted, &oracle, "budgeted divergence on `{}`", body),
        }
    }

    /// The attribute-value index against a scan: random programs, in-place
    /// attribute writes among them, apply their pending update lists to
    /// one document, some rolled back by an injected crash. After each,
    /// every answer the index gives equals the scan's — on the DOM, where
    /// the second probe of a name builds its table, and through the
    /// compiled tier, whose `//*[@a = v]` from the document node then asks
    /// the index, against the interpreter, which always scans.
    #[test]
    fn attr_index_answers_match_scans(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xA076_1D64_78BD_642F));
        let store = store_with_doc(&gen_doc(&mut rng));
        let hits_before = stats::snapshot().attr_index_hits;
        for _ in 0..4 {
            let body = if rng.below(2) == 0 {
                gen_updating(&mut rng)
            } else {
                gen_attr_update(&mut rng)
            };
            let crash = if rng.below(3) == 0 {
                CrashPoint::at(rng.below(4))
            } else {
                CrashPoint::none()
            };
            let run = run_updating_on(&store, &body, true, None, crash);
            if run.apply.is_err() {
                prop_assert_eq!(&run.before, &run.after, "rollback left a trace: `{}`", body);
            }
            for name in PROBE_NAMES.map(QName::local) {
                for value in PROBE_VALUES {
                    let s = store.borrow();
                    let doc = s.doc(s.doc_by_uri("t.xml").expect("doc survives"));
                    let scan = attr_owners_naive(doc, &name, value);
                    for _ in 0..2 {
                        if let Some(hit) = doc.attr_owners(&name, value) {
                            prop_assert_eq!(&*hit, scan.as_slice(), "@{} = {} after `{}`", name, value, body);
                        }
                    }
                }
            }
            let name = rng.pick(&PROBE_NAMES);
            let value = rng.pick(&PROBE_VALUES);
            for q in [
                format!("doc('t.xml')//*[@{name} = '{value}']"),
                format!("let $v := '{value}' return doc('t.xml')//{}[@{name} = $v]/@*", rng.pick(&TAGS)),
            ] {
                let interpreted = eval_on(&store, &q, None, false);
                prop_assert_eq!(eval_on(&store, &q, None, true), interpreted, "`{}` after `{}`", q, body);
            }
        }
        prop_assert!(stats::snapshot().attr_index_hits > hits_before, "the index answered");
    }

    /// Named descendant steps through the element-name index: the compiled
    /// tier answers like the oracle, and charges exactly what the walk it
    /// replaces charges — on a cold store, where each name's first probe
    /// walks, and on a warm one, where every probe is indexed, the result
    /// and the fuel used are equal, also when a budget runs out mid-walk.
    #[test]
    fn named_steps_match_the_oracle_and_charge_the_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed ^ env_seed().wrapping_mul(0xE703_7ED1_A0B4_28DB));
        let xml = gen_doc(&mut rng);
        let q = gen_named(&mut rng, false);
        let (oracle, _) = run(&q, &xml, None, false);
        let budget = match rng.below(3) {
            0 => None,
            _ => Some(1 + rng.below(200)),
        };
        let cold = fuel_on(&store_with_doc(&xml), &q, budget);
        let warm_store = store_with_doc(&xml);
        prop_assert_eq!(&fuel_on(&warm_store, &q, None).0, &oracle, "`{}` over {}", q, xml);
        let hits = stats::snapshot().name_index_hits;
        prop_assert_eq!(&fuel_on(&warm_store, &q, None).0, &oracle, "`{}` over {}", q, xml);
        prop_assert!(stats::snapshot().name_index_hits > hits, "the index answered `{}`", q);
        let warm = fuel_on(&warm_store, &q, budget);
        prop_assert_eq!(&cold, &warm, "fuel of `{}` with {:?} over {}", q, budget, xml);
        match &warm.0 {
            Err(code) if code == "XQIB0011" => {}
            other => prop_assert_eq!(other, &oracle, "budgeted `{}`", q),
        }
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

/// The generator reaches every construct the plan tier lowers beyond paths
/// and FLWORs, and the tiers agree on it: over a fixed sweep of generated
/// queries both give the same answer, and for each construct some query
/// using it runs to a result, so the comparison covers real evaluations of
/// it, not just matching parse errors.
#[test]
fn generated_queries_reach_every_lowered_construct_and_agree() {
    let forms = [
        "some $s",
        "every $s",
        "typeswitch",
        "instance of",
        "treat as",
        "castable as",
        "cast as",
        ") | (",
        "union",
        "intersect",
        "except",
        " is (",
        " << (",
        " >> (",
        "element ",
        "attribute ",
        "text {",
        "comment {",
        "processing-instruction",
        "document {",
        "copy $c",
        "ftcontains",
    ];
    let mut ran = vec![0u32; forms.len()];
    let mut rng = Rng(env_seed());
    for _ in 0..3000 {
        let xml = gen_doc(&mut rng);
        let q = gen_expr(&mut rng, 2);
        let oracle = run(&q, &xml, None, false);
        assert_eq!(run(&q, &xml, None, true), oracle, "`{q}` over {xml}");
        if oracle.0.is_ok() {
            for (n, form) in ran.iter_mut().zip(forms) {
                *n += q.contains(form) as u32;
            }
        }
    }
    for (n, form) in ran.iter().zip(forms) {
        assert!(*n > 0, "no generated query with `{form}` ran: {ran:?}");
    }
}

/// Every identity shape [`gen_identity`] draws runs to a result on some
/// query of a fixed sweep, and the tiers agree on all of them: the
/// comparison covers real adoptions and copies, not matching errors.
#[test]
fn identity_shapes_run_and_agree() {
    let shapes = [
        "{$c}{$c}",
        "order by",
        "then",
        "typeswitch",
        "copy $c",
        "local:g()",
    ];
    let mut ran = [0u32; 6];
    let mut rng = Rng(env_seed() ^ 0x1D);
    for _ in 0..600 {
        let xml = gen_doc(&mut rng);
        let body = gen_identity(&mut rng, 2, true);
        let q = format!("{IDENTITY_PROLOG}{body}");
        let oracle = run(&q, &xml, None, false);
        assert_eq!(run(&q, &xml, None, true), oracle, "`{q}` over {xml}");
        if oracle.0.is_ok() {
            for (n, shape) in ran.iter_mut().zip(shapes) {
                *n += body.contains(shape) as u32;
            }
        }
    }
    assert!(ran.iter().all(|&n| n > 0), "a shape never ran: {ran:?}");
}

/// A range longer than the implementation limit raises `XPDY0130` on both
/// tiers instead of asking for the allocation. The first query is a case an
/// earlier generator drew at `XQIB_PLAN_SEED=34`: the `<b>` content
/// concatenates to a 40-digit number, so the range reached `i64::MAX` and
/// both tiers panicked with "capacity overflow". The second streams its
/// range through `count` on the compiled tier.
#[test]
fn oversized_ranges_raise_the_same_error_on_both_tiers() {
    let xml = r#"<r><c id="k2"><b id="k3"><b><c id="k3">78</c><a>88</a></b><d id="k3"><d>92</d><b>24</b></d></b><b id="k3"><d id="k2"><d>54</d><b>70</b></d></b></c><d><a id="k3">43</a><a><d id="k3">49</d></a><b id="k3"><c><d>51</d><a id="k1">95</a></c></b></d></r>"#;
    for q in [
        r#"(2 to 10 + <b id="{doc('t.xml')/c/d//*}" n="{doc('t.xml')/d[position() < 1]/@id}">{12}{doc('t.xml')/*[last()]}{doc('t.xml')//d[last()]}</b>, ('k3' * 13, (<d>{(5, 'k2')}<e/></d>)/b[@id = 'k2']/@id))"#,
        "count(1 to 100000000000)",
    ] {
        let (interpreted, _) = run(q, xml, None, false);
        let (compiled, _) = run(q, xml, None, true);
        assert_eq!(interpreted, Err("XPDY0130".to_string()), "{q}");
        assert_eq!(compiled, interpreted, "{q}");
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
