//! Conformance-style tests: systematic sweeps over operators, functions,
//! type rules and error codes — one behaviour per case, modelled on the
//! W3C XQuery test-suite style.

use xqib_dom::store::shared_store;
use xqib_dom::SharedStore;
use xqib_xquery::runtime::run_to_string;

fn run(src: &str) -> String {
    run_to_string(src, shared_store()).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn err(src: &str) -> String {
    match run_to_string(src, shared_store()) {
        Ok(v) => panic!("expected error for `{src}`, got `{v}`"),
        Err(e) => e.code,
    }
}

fn store(xml: &str) -> SharedStore {
    let s = shared_store();
    let d = xqib_dom::parse_document(xml).unwrap();
    s.borrow_mut().add_document(d, Some("t.xml"));
    s
}

fn runs(src: &str, st: &SharedStore) -> String {
    run_to_string(src, st.clone()).unwrap_or_else(|e| panic!("{src}: {e}"))
}

/// Table-driven checker.
fn check_all(cases: &[(&str, &str)]) {
    for (src, expected) in cases {
        assert_eq!(&run(src), expected, "query: {src}");
    }
}

// ===== operators ==============================================================

#[test]
fn numeric_promotion_matrix() {
    check_all(&[
        // integer op integer
        ("1 + 2", "3"),
        ("1 - 2", "-1"),
        ("2 * 3", "6"),
        ("4 div 2", "2"),
        ("5 div 2", "2.5"),
        ("5 idiv 2", "2"),
        ("-5 idiv 2", "-2"),
        ("5 mod 3", "2"),
        ("-5 mod 3", "-2"),
        // decimal involvement
        ("1.5 + 1", "2.5"),
        ("0.1 + 0.2 < 0.4", "true"),
        ("2.5 * 2", "5"),
        // double involvement
        ("1e0 + 1", "2"),
        ("1e300 * 1e300", "INF"),
        ("-1e300 * 1e300", "-INF"),
        // untyped promotion through node content happens via data(); here
        // via literals the rules are direct
        ("xs:untypedAtomic('5') + 1", "6"),
        ("xs:untypedAtomic('5.5') * 2", "11"),
    ]);
    assert_eq!(err("xs:untypedAtomic('five') + 1"), "FORG0001");
    assert_eq!(err("'5' + 1"), "XPTY0004");
}

#[test]
fn comparison_matrix() {
    check_all(&[
        ("1 = 1.0", "true"),
        ("1 eq 1.0", "true"),
        ("1 < 1.5", "true"),
        ("'a' = 'a'", "true"),
        ("'a' != 'b'", "true"),
        ("true() = true()", "true"),
        ("false() lt true()", "true"),
        ("xs:date('2009-01-01') lt xs:date('2009-01-02')", "true"),
        (
            "xs:dateTime('2009-01-01T00:00:00') eq xs:dateTime('2009-01-01T00:00:00')",
            "true",
        ),
        ("xs:time('09:00:00') lt xs:time('10:00:00')", "true"),
        // general comparisons over sequences
        ("(1, 2) = (2, 3)", "true"),
        ("(1, 2) < (0, 1)", "false"),
        ("(1, 2) != 1", "true"),
        ("() != ()", "false"),
    ]);
}

#[test]
fn sequence_operators() {
    check_all(&[
        ("count((1, (2, 3), ()))", "3"), // flattening
        ("(1, 2)[2]", "2"),
        ("(1 to 10)[. mod 2 = 0]", "2 4 6 8 10"),
        ("(1 to 10)[last()]", "10"),
        ("(1 to 5)[position() > 3]", "4 5"),
        ("empty(())", "true"),
        ("empty((()))", "true"),
        ("exists((0))", "true"),
    ]);
}

#[test]
fn effective_boolean_value_rules() {
    check_all(&[
        ("if (()) then 'y' else 'n'", "n"),
        ("if ('') then 'y' else 'n'", "n"),
        ("if ('x') then 'y' else 'n'", "y"),
        ("if (0) then 'y' else 'n'", "n"),
        ("if (0.0e0) then 'y' else 'n'", "n"),
        ("if (-1) then 'y' else 'n'", "y"),
        ("boolean('false')", "true"), // non-empty string!
    ]);
    assert_eq!(err("if ((1, 2)) then 1 else 2"), "FORG0006");
}

#[test]
fn logic_truth_table() {
    check_all(&[
        ("true() and true()", "true"),
        ("true() and false()", "false"),
        ("false() and false()", "false"),
        ("true() or false()", "true"),
        ("false() or false()", "false"),
        ("not(())", "true"),
        ("not('x')", "false"),
    ]);
}

// ===== casts =================================================================

#[test]
fn cast_matrix() {
    check_all(&[
        ("xs:string(12)", "12"),
        ("xs:string(1.5)", "1.5"),
        ("xs:string(true())", "true"),
        ("xs:integer('007')", "7"),
        ("xs:integer(3.99)", "3"),
        ("xs:integer(-3.99)", "-3"),
        ("xs:integer(true())", "1"),
        ("xs:double('1.5e2')", "150"),
        ("xs:double('INF')", "INF"),
        ("xs:boolean('1')", "true"),
        ("xs:boolean(0)", "false"),
        ("xs:decimal('3.14') * 2", "6.28"),
        ("string(xs:date('2009-04-20'))", "2009-04-20"),
        ("string(xs:duration('P1Y2M'))", "P1Y2M"),
        ("string(xs:anyURI('http://x/'))", "http://x/"),
    ]);
    assert_eq!(err("xs:integer('x')"), "FORG0001");
    assert_eq!(err("xs:boolean('maybe')"), "FORG0001");
    assert_eq!(err("xs:date('2009-13-40')"), "FORG0001");
    assert_eq!(err("xs:integer(1e400)"), "FOCA0002"); // INF
}

#[test]
fn castable_matrix() {
    check_all(&[
        ("'3' castable as xs:integer", "true"),
        ("'x' castable as xs:integer", "false"),
        ("'2009-04-20' castable as xs:date", "true"),
        ("'20-04-2009' castable as xs:date", "false"),
        ("() castable as xs:integer?", "true"),
        ("() castable as xs:integer", "false"),
        ("(1, 2) castable as xs:integer", "false"),
    ]);
}

#[test]
fn instance_of_matrix() {
    check_all(&[
        ("1 instance of xs:integer", "true"),
        ("1 instance of xs:decimal", "true"), // subtype
        ("1.5 instance of xs:integer", "false"),
        ("1 instance of item()", "true"),
        ("<a/> instance of element()", "true"),
        ("<a/> instance of element(a)", "true"),
        ("<a/> instance of element(b)", "false"),
        ("<a/> instance of node()", "true"),
        ("<a/> instance of xs:string", "false"),
        ("attribute x { 1 } instance of attribute()", "true"),
        ("text { 'x' } instance of text()", "true"),
        ("comment { 'x' } instance of comment()", "true"),
        ("(1, 2, 3) instance of xs:integer*", "true"),
        ("() instance of xs:integer?", "true"),
        ("() instance of xs:integer+", "false"),
        ("(1, 'a') instance of xs:integer*", "false"),
    ]);
}

#[test]
fn treat_as() {
    assert_eq!(run("(1 treat as xs:integer) + 1"), "2");
    assert_eq!(err("('x' treat as xs:integer)"), "XPDY0050");
}

// ===== F&O sweep ==============================================================

#[test]
fn fo_strings() {
    check_all(&[
        ("substring('12345', 2)", "2345"),
        ("substring('12345', 2, 2)", "23"),
        ("substring('12345', 0)", "12345"),
        ("substring('12345', 1.5, 2.6)", "234"), // spec rounding example
        ("substring-before('tattoo', 'attoo')", "t"),
        ("substring-before('tattoo', 'xxx')", ""),
        ("substring-after('tattoo', 'tat')", "too"),
        ("contains('tattoo', 'att')", "true"),
        ("contains('tattoo', '')", "true"),
        ("starts-with('tattoo', 'tat')", "true"),
        ("ends-with('tattoo', 'too')", "true"),
        ("string-join((), '-')", ""),
        ("string-join(('a'), '-')", "a"),
        ("normalize-space('')", ""),
        ("translate('abcdabc', 'abc', 'AB')", "ABdAB"),
        ("upper-case('Straße')", "STRASSE"),
        ("encode-for-uri('a b/c')", "a%20b%2Fc"),
        ("string-to-codepoints('AB')", "65 66"),
        ("codepoints-to-string((72, 105))", "Hi"),
    ]);
}

#[test]
fn fo_numeric() {
    check_all(&[
        ("abs(-3)", "3"),
        ("abs(3.5)", "3.5"),
        ("ceiling(1.1)", "2"),
        ("floor(1.9)", "1"),
        ("ceiling(-1.1)", "-1"),
        ("floor(-1.1)", "-2"),
        ("round(2.5)", "3"),
        ("round(-2.5)", "-2"), // round half toward +inf
        ("round-half-to-even(2.5)", "2"),
        ("round-half-to-even(3.5)", "4"),
        ("number('12')", "12"),
        ("string(number('x'))", "NaN"),
        ("abs(())", ""),
    ]);
}

#[test]
fn fo_aggregates_edge_cases() {
    check_all(&[
        ("sum(())", "0"),
        ("sum((), 99)", "99"),
        ("sum((1.5, 2.5))", "4"),
        ("avg(())", ""),
        ("min(())", ""),
        ("max((2, 3.5, 1))", "3.5"),
        ("count(())", "0"),
        ("sum((xs:untypedAtomic('3'), 4))", "7"),
    ]);
}

#[test]
fn fo_sequences_edge_cases() {
    check_all(&[
        ("subsequence((1, 2, 3, 4), 0)", "1 2 3 4"),
        ("subsequence((1, 2, 3, 4), 3)", "3 4"),
        ("subsequence((1, 2, 3, 4), 10)", ""),
        ("subsequence((1, 2, 3, 4), 2, 0)", ""),
        ("remove((1, 2, 3), 0)", "1 2 3"),
        ("remove((1, 2, 3), 9)", "1 2 3"),
        ("insert-before((1, 2), 99, 3)", "1 2 3"),
        ("index-of((1, 2, 3), 9)", ""),
        ("reverse(())", ""),
        ("distinct-values((1, 1.0, '1'))", "1 1"),
        ("zero-or-one(())", ""),
        ("exactly-one(5)", "5"),
        ("one-or-more((1, 2))", "1 2"),
    ]);
    assert_eq!(err("zero-or-one((1, 2))"), "FORG0003");
    assert_eq!(err("one-or-more(())"), "FORG0004");
    assert_eq!(err("exactly-one(())"), "FORG0005");
}

#[test]
fn fo_dates() {
    check_all(&[
        ("year-from-date(xs:date('2009-04-20'))", "2009"),
        ("month-from-date(xs:date('2009-04-20'))", "4"),
        ("day-from-date(xs:date('2009-04-20'))", "20"),
        (
            "hours-from-dateTime(xs:dateTime('2009-04-20T13:45:30'))",
            "13",
        ),
        (
            "minutes-from-dateTime(xs:dateTime('2009-04-20T13:45:30'))",
            "45",
        ),
        (
            "seconds-from-dateTime(xs:dateTime('2009-04-20T13:45:30'))",
            "30",
        ),
        // duration arithmetic
        (
            "string(xs:duration('P1D') + xs:duration('PT12H'))",
            "P1DT12H",
        ),
        ("string(xs:duration('P2D') * 2)", "P4D"),
        ("string(xs:duration('P2D') div 2)", "P1D"),
        (
            "string(xs:date('2009-04-20') - xs:date('2009-04-10'))",
            "P10D",
        ),
    ]);
}

#[test]
fn fo_errors_and_trace() {
    assert_eq!(err("error()"), "FOER0000");
    assert_eq!(err("error('XQIB9999', 'custom')"), "XQIB9999");
    assert_eq!(run("trace((1, 2), 'label')"), "1 2");
}

// ===== node functions over a document =========================================

#[test]
fn node_accessors() {
    let s = store(r#"<r xmlns:p="urn:p"><p:a id="1">text</p:a><!--c--><?pi d?></r>"#);
    assert_eq!(runs("name(doc('t.xml')/r/*[1])", &s), "p:a");
    assert_eq!(runs("local-name(doc('t.xml')/r/*[1])", &s), "a");
    assert_eq!(runs("namespace-uri(doc('t.xml')/r/*[1])", &s), "urn:p");
    assert_eq!(runs("name(doc('t.xml')/r/*[1]/@id)", &s), "id");
    assert_eq!(runs("string(doc('t.xml')/r/*[1])", &s), "text");
    assert_eq!(runs("count(doc('t.xml')/r/comment())", &s), "1");
    assert_eq!(
        runs("count(doc('t.xml')/r/processing-instruction())", &s),
        "1"
    );
    assert_eq!(
        runs("count(doc('t.xml')/r/processing-instruction('pi'))", &s),
        "1"
    );
    assert_eq!(
        runs("count(doc('t.xml')/r/processing-instruction('other'))", &s),
        "0"
    );
    assert_eq!(
        runs(
            "declare namespace p = 'urn:p'; count(root(doc('t.xml')//p:a))",
            &s
        ),
        "1"
    );
    assert_eq!(
        runs(
            "declare namespace p = 'urn:p'; \
             root(doc('t.xml')//p:a) instance of document-node()",
            &s
        ),
        "true"
    );
    // `//node-name(.)` is a function step: the first item is the root
    // element's name
    assert_eq!(runs("string(doc('t.xml')//node-name(.))", &s), "r");
}

#[test]
fn axes_comprehensive() {
    let s = store("<a><b1><c1/><c2/></b1><b2><c3><d/></c3></b2></a>");
    let cases: &[(&str, &str)] = &[
        ("count(doc('t.xml')/a/child::*)", "2"),
        ("count(doc('t.xml')//descendant::c3)", "1"),
        ("count(doc('t.xml')/a/descendant::*)", "6"),
        ("count(doc('t.xml')/a/descendant-or-self::*)", "7"),
        ("name(doc('t.xml')//d/parent::*)", "c3"),
        ("count(doc('t.xml')//d/ancestor::*)", "3"),
        ("count(doc('t.xml')//d/ancestor-or-self::*)", "4"),
        ("name(doc('t.xml')//b1/following-sibling::*)", "b2"),
        ("name(doc('t.xml')//b2/preceding-sibling::*)", "b1"),
        ("count(doc('t.xml')//c1/following::*)", "4"),
        ("count(doc('t.xml')//c3/preceding::*)", "3"),
        ("count(doc('t.xml')//d/self::d)", "1"),
        ("count(doc('t.xml')//d/self::x)", "0"),
    ];
    for (q, expected) in cases {
        assert_eq!(&runs(q, &s), expected, "query: {q}");
    }
}

#[test]
fn predicates_on_reverse_axes_count_backwards() {
    let s = store("<a><b/><b/><b/><mark/></a>");
    // preceding-sibling::b[1] is the NEAREST preceding sibling
    assert_eq!(
        runs("count(doc('t.xml')//mark/preceding-sibling::b[1])", &s),
        "1"
    );
    let s2 = store("<a><b id='1'/><b id='2'/><b id='3'/><mark/></a>");
    assert_eq!(
        runs(
            "string(doc('t.xml')//mark/preceding-sibling::b[1]/@id)",
            &s2
        ),
        "3"
    );
    assert_eq!(
        runs(
            "string(doc('t.xml')//mark/preceding-sibling::b[3]/@id)",
            &s2
        ),
        "1"
    );
}

#[test]
fn wildcard_name_tests() {
    let s = store(r#"<r xmlns:p="urn:p" xmlns:q="urn:q"><p:x/><q:x/><y/></r>"#);
    assert_eq!(runs("count(doc('t.xml')/r/*)", &s), "3");
    assert_eq!(runs("count(doc('t.xml')/r/*:x)", &s), "2");
    assert_eq!(
        runs(
            "declare namespace p = 'urn:p'; count(doc('t.xml')/r/p:*)",
            &s
        ),
        "1"
    );
}

#[test]
fn union_intersect_except_laws() {
    let s = store("<a><b/><c/><d/></a>");
    // A ∪ A = A ; A ∩ A = A ; A \ A = ∅
    assert_eq!(runs("count(doc('t.xml')//* | doc('t.xml')//*)", &s), "4");
    assert_eq!(
        runs("count(doc('t.xml')//* intersect doc('t.xml')//*)", &s),
        "4"
    );
    assert_eq!(
        runs("count(doc('t.xml')//* except doc('t.xml')//*)", &s),
        "0"
    );
    // results in document order regardless of operand order
    assert_eq!(
        runs(
            "string-join(for $n in (doc('t.xml')//c | doc('t.xml')//b) return name($n), ',')",
            &s
        ),
        "b,c"
    );
    assert_eq!(err("(1, 2) | (3)"), "XPTY0004");
}

// ===== constructors ============================================================

#[test]
fn constructor_edge_cases() {
    check_all(&[
        // empty enclosed expression yields nothing
        ("<a>{()}</a>", "<a/>"),
        // sequence of atomics space-joined
        ("<a>{1 to 3}</a>", "<a>1 2 3</a>"),
        // mixed text and enclosed
        ("<a>x{1}y</a>", "<a>x1y</a>"),
        // attribute value templates normalise to strings
        ("<a b=\"{(1, 2)}\"/>", "<a b=\"1 2\"/>"),
        // nested constructors
        ("<a>{<b>{<c/>}</b>}</a>", "<a><b><c/></b></a>"),
        // namespace declaration on constructor
        ("count(<p:a xmlns:p=\"urn:p\"/>/self::*)", "1"),
        // computed everything
        (
            "element r { attribute n { 1 }, text { 'v' }, comment { 'c' } }",
            "<r n=\"1\">v<!--c--></r>",
        ),
        // document constructor
        ("count(document { <a/> }/a)", "1"),
    ]);
    // attributes after content is an error
    assert_eq!(
        err("element r { text { 'v' }, attribute n { 1 } }"),
        "XQTY0024"
    );
}

/// XQuery 1.0 §3.7.1.3: an attribute after other content of the same
/// constructor is `XQTY0024`, whether that content came in the same
/// enclosed expression, an earlier one, literal text or a nested
/// constructor.
#[test]
fn attributes_after_content_in_any_part_of_a_constructor_are_an_error() {
    for src in [
        "<a>{'x', attribute b {1}}</a>",
        "<a>x{attribute b {1}}</a>",
        "<a>{'x'}{attribute b {1}}</a>",
        "<a><c/>{attribute b {1}}</a>",
        // two atomics join into a text node holding a space
        "<a>{'', '', attribute b {1}}</a>",
    ] {
        assert_eq!(err(src), "XQTY0024", "query: {src}");
    }
    // attributes before any content may come in several parts, and
    // zero-length text is deleted before the check
    check_all(&[
        ("<a>{'', attribute b {1}}</a>", "<a b=\"1\"/>"),
        ("<a>{text {''}, attribute b {1}}</a>", "<a b=\"1\"/>"),
        (
            "<a>{attribute b {1}}{attribute c {2}}x</a>",
            "<a b=\"1\" c=\"2\">x</a>",
        ),
        ("<a>{()}{attribute b {1}}<c/></a>", "<a b=\"1\"><c/></a>"),
    ]);
}

#[test]
fn constructed_nodes_are_new_copies() {
    // the same expression constructs distinct nodes
    assert_eq!(run("<a/> is <a/>"), "false");
    assert_eq!(run("let $x := <a/> return $x is $x"), "true");
    // copied content is detached from the source
    let s = store("<r><v>1</v></r>");
    assert_eq!(
        runs(
            "let $c := <w>{doc('t.xml')/r/v}</w> \
             return $c/v is doc('t.xml')/r/v",
            &s
        ),
        "false"
    );
}

// ===== FLWOR corner cases =======================================================

#[test]
fn flwor_corner_cases() {
    check_all(&[
        // where before any for: constant filter
        ("let $x := 5 where $x > 3 return $x", "5"),
        // let rebinding shadows
        ("let $x := 1 let $x := $x + 1 return $x", "2"),
        // empty input sequence yields empty output
        ("for $x in () return 'never'", ""),
        // order by with empty keys
        (
            "for $x in (3, 1, 2) order by (if ($x = 1) then () else $x) empty least return $x",
            "1 2 3",
        ),
        (
            "for $x in (3, 1, 2) order by (if ($x = 1) then () else $x) empty greatest return $x",
            "2 3 1",
        ),
        // stable order by: ties keep input order
        (
            "for $x in ('b1', 'a1', 'b2', 'a2') order by substring($x, 1, 1) return $x",
            "a1 a2 b1 b2",
        ),
        // at-position with where
        (
            "for $x at $i in ('a', 'b', 'c') where $i mod 2 = 1 return $x",
            "a c",
        ),
    ]);
}

#[test]
fn quantifier_corner_cases() {
    check_all(&[
        ("some $x in () satisfies true()", "false"),
        ("every $x in () satisfies false()", "true"),
        ("some $x in (1, 2, 3) satisfies $x = 2", "true"),
        // nested: some/every interplay
        (
            "every $x in (1, 2) satisfies some $y in (1, 2) satisfies $x = $y",
            "true",
        ),
    ]);
}

// ===== error codes ==============================================================

#[test]
fn static_error_codes() {
    assert_eq!(err("1 +"), "XPST0003");
    assert_eq!(err("for $x return 1"), "XPST0003");
    assert_eq!(err("<a>"), "XPST0003");
    assert_eq!(err("nosuch:fn(1)"), "XPST0081");
    assert_eq!(err("unknownfn(1)"), "XPST0017");
}

#[test]
fn dynamic_error_codes() {
    assert_eq!(err("$nope"), "XPDY0002");
    assert_eq!(err("('a', 'b') eq 'a'"), "XPTY0004");
    assert_eq!(err("count(1, 2)"), "XPST0017"); // wrong arity
}

#[test]
fn update_error_codes() {
    let s = store("<r><a/></r>");
    let e = run_to_string("insert node <x/> into doc('t.xml')//a/text()", s.clone());
    assert!(e.is_err());
    let e = run_to_string("replace node doc('t.xml') with <x/>", s.clone()).unwrap_err();
    assert_eq!(e.code, "XUDY0009", "cannot replace the document root");
    let e = run_to_string("delete node 42", s).unwrap_err();
    assert_eq!(e.code, "XPTY0004");
}

// ===== whitespace & comments in odd places ======================================

#[test]
fn lexical_robustness() {
    check_all(&[
        ("1+2", "3"),
        ("1 (::)+(::) 2", "3"),
        ("  (: leading :) 42  ", "42"),
        ("(1,2,  3)[ 2 ]", "2"),
        ("'it''s'", "it's"),
        ("\"say \"\"hi\"\"\"", "say \"hi\""),
    ]);
}

#[test]
fn deeply_nested_expressions() {
    // parser recursion sanity
    let mut q = String::from("1");
    for _ in 0..15 {
        q = format!("({q} + 1)");
    }
    assert_eq!(run(&q), "16");
    // beyond the guard: a clean error, not a crash
    let mut q = String::from("1");
    for _ in 0..300 {
        q = format!("({q} + 1)");
    }
    assert_eq!(err(&q), "XPST0003");
}

#[test]
fn keywords_usable_as_element_names() {
    // XQuery reserves nothing: these are all valid element names
    check_all(&[
        ("<for/>", "<for/>"),
        ("<if/>", "<if/>"),
        ("<return x=\"1\"/>", "<return x=\"1\"/>"),
        ("count(<event/>/self::event)", "1"),
    ]);
    let s = store("<r><for>1</for><return>2</return></r>");
    assert_eq!(runs("string(doc('t.xml')/r/for)", &s), "1");
    assert_eq!(runs("string(doc('t.xml')/r/return)", &s), "2");
}

#[test]
fn fn_id_over_id_attributes() {
    let s = store(r#"<r><a id="x"/><b id="y"><c id="z"/></b></r>"#);
    assert_eq!(runs("name(id('x', doc('t.xml')))", &s), "a");
    assert_eq!(runs("count(id('x y z', doc('t.xml')))", &s), "3");
    assert_eq!(runs("count(id(('x', 'z'), doc('t.xml')))", &s), "2");
    assert_eq!(runs("count(id('nope', doc('t.xml')))", &s), "0");
    // context-item form
    assert_eq!(runs("doc('t.xml')/r/id('y')/name(.)", &s), "b");
}
