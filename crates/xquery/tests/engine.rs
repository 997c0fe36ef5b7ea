//! End-to-end engine tests: parse + evaluate whole queries.

use xqib_dom::store::shared_store;
use xqib_dom::{parse_document, SharedStore};
use xqib_xquery::runtime::{run_query, run_to_string};

fn run(src: &str) -> String {
    run_to_string(src, shared_store()).unwrap_or_else(|e| panic!("{src}: {e}"))
}

fn err_code(src: &str) -> String {
    match run_to_string(src, shared_store()) {
        Ok(v) => panic!("expected error for {src}, got `{v}`"),
        Err(e) => e.code,
    }
}

/// Store pre-loaded with a library document, as `fn:doc("lib.xml")`.
fn store_with(uri: &str, xml: &str) -> SharedStore {
    let store = shared_store();
    let doc = parse_document(xml).unwrap();
    store.borrow_mut().add_document(doc, Some(uri));
    store
}

// ===== literals, arithmetic, comparisons =====================================

#[test]
fn arithmetic_basics() {
    assert_eq!(run("1 + 2 * 3"), "7");
    assert_eq!(run("(1 + 2) * 3"), "9");
    assert_eq!(run("7 div 2"), "3.5");
    assert_eq!(run("7 idiv 2"), "3");
    assert_eq!(run("7 mod 2"), "1");
    assert_eq!(run("-3 + 1"), "-2");
    assert_eq!(run("2 - -3"), "5");
    assert_eq!(run("6 div 3"), "2");
}

#[test]
fn division_by_zero() {
    assert_eq!(err_code("1 div 0"), "FOAR0001");
    assert_eq!(err_code("1 mod 0"), "FOAR0001");
    // double division by zero gives INF
    assert_eq!(run("1e0 div 0"), "INF");
}

#[test]
fn empty_sequence_propagates_through_arithmetic() {
    assert_eq!(run("() + 1"), "");
    assert_eq!(run("1 * ()"), "");
}

#[test]
fn comparisons_value_and_general() {
    assert_eq!(run("1 eq 1"), "true");
    assert_eq!(run("1 lt 2"), "true");
    assert_eq!(run("'a' lt 'b'"), "true");
    assert_eq!(run("(1, 2, 3) = 3"), "true");
    assert_eq!(run("(1, 2, 3) = 4"), "false");
    assert_eq!(run("(1, 2) != (1, 2)"), "true"); // existential semantics
    assert_eq!(run("() = 1"), "false");
    assert_eq!(run("1 eq ()"), "");
}

#[test]
fn logic_operators() {
    assert_eq!(run("true() and false()"), "false");
    assert_eq!(run("true() or false()"), "true");
    assert_eq!(run("not(1 = 2)"), "true");
    // short circuit: the error operand is never evaluated
    assert_eq!(run("false() and (1 div 0 = 1)"), "false");
    assert_eq!(run("true() or (1 div 0 = 1)"), "true");
}

#[test]
fn range_expression() {
    assert_eq!(run("1 to 4"), "1 2 3 4");
    assert_eq!(run("4 to 1"), "");
    assert_eq!(run("count(1 to 100)"), "100");
}

#[test]
fn string_concatenation_functions() {
    assert_eq!(run("concat('a', 'b', 'c')"), "abc");
    assert_eq!(run("string-join(('a','b','c'), '-')"), "a-b-c");
    assert_eq!(run("upper-case('xquery')"), "XQUERY");
    assert_eq!(run("substring('browser', 1, 4)"), "brow");
    assert_eq!(run("substring-after('www.xqib.org', 'www.')"), "xqib.org");
    assert_eq!(run("normalize-space('  a   b ')"), "a b");
    assert_eq!(run("translate('bar','abc','ABC')"), "BAr");
    assert_eq!(run("string-length('hello')"), "5");
}

#[test]
fn regex_functions() {
    assert_eq!(run("matches('xqib.org', '^[a-z]+\\.(org|com)$')"), "true");
    assert_eq!(run("replace('a-b-c', '-', '+')"), "a+b+c");
    assert_eq!(run("tokenize('a b  c', '\\s+')"), "a b c");
    assert_eq!(
        run("replace('2009-04-20', '(\\d+)-(\\d+)-(\\d+)', '$3/$2/$1')"),
        "20/04/2009"
    );
}

#[test]
fn sequence_functions() {
    assert_eq!(run("count((1, 2, 3))"), "3");
    assert_eq!(run("empty(())"), "true");
    assert_eq!(run("exists((1))"), "true");
    assert_eq!(run("reverse((1, 2, 3))"), "3 2 1");
    assert_eq!(run("distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
    assert_eq!(run("subsequence((1,2,3,4,5), 2, 3)"), "2 3 4");
    assert_eq!(run("insert-before((1,3), 2, 2)"), "1 2 3");
    assert_eq!(run("remove((1,2,3), 2)"), "1 3");
    assert_eq!(run("index-of((10,20,10), 10)"), "1 3");
}

#[test]
fn aggregates() {
    assert_eq!(run("sum((1, 2, 3))"), "6");
    assert_eq!(run("sum(())"), "0");
    assert_eq!(run("avg((2, 4))"), "3");
    assert_eq!(run("min((3, 1, 2))"), "1");
    assert_eq!(run("max((3, 1, 2))"), "3");
}

#[test]
fn casts_and_instance_of() {
    assert_eq!(run("xs:integer('42') + 1"), "43");
    assert_eq!(run("'42' cast as xs:integer"), "42");
    assert_eq!(run("3 instance of xs:integer"), "true");
    assert_eq!(run("3 instance of xs:string"), "false");
    assert_eq!(run("(1, 2) instance of xs:integer+"), "true");
    assert_eq!(run("() instance of empty-sequence()"), "true");
    assert_eq!(run("'abc' castable as xs:integer"), "false");
    assert_eq!(run("'12' castable as xs:integer"), "true");
    assert_eq!(err_code("'abc' cast as xs:integer"), "FORG0001");
}

#[test]
fn if_then_else_and_quantifiers() {
    assert_eq!(run("if (1 < 2) then 'yes' else 'no'"), "yes");
    assert_eq!(run("some $x in (1, 2, 3) satisfies $x > 2"), "true");
    assert_eq!(run("every $x in (1, 2, 3) satisfies $x > 0"), "true");
    assert_eq!(run("every $x in (1, 2, 3) satisfies $x > 1"), "false");
    assert_eq!(
        run("some $x in (1,2), $y in (3,4) satisfies $x + $y = 6"),
        "true"
    );
}

#[test]
fn typeswitch_dispatch() {
    assert_eq!(
        run("typeswitch (3) case xs:string return 's' case xs:integer return 'i' default return 'd'"),
        "i"
    );
    assert_eq!(
        run("typeswitch ('x') case xs:integer return 'i' default return 'd'"),
        "d"
    );
    assert_eq!(
        run("typeswitch ((1,2)) case $v as xs:integer+ return sum($v) default return 0"),
        "3"
    );
}

// ===== FLWOR ==================================================================

#[test]
fn flwor_basics() {
    assert_eq!(run("for $i in 1 to 3 return $i * 2"), "2 4 6");
    assert_eq!(run("for $i in 1 to 3 let $s := $i * $i return $s"), "1 4 9");
    assert_eq!(run("for $i in 1 to 5 where $i mod 2 = 0 return $i"), "2 4");
    assert_eq!(
        run("for $i at $p in ('a','b','c') return concat($p, $i)"),
        "1a 2b 3c"
    );
}

#[test]
fn flwor_order_by() {
    assert_eq!(run("for $i in (3, 1, 2) order by $i return $i"), "1 2 3");
    assert_eq!(
        run("for $i in (3, 1, 2) order by $i descending return $i"),
        "3 2 1"
    );
    assert_eq!(
        run("for $s in ('bb', 'a', 'ccc') order by string-length($s) return $s"),
        "a bb ccc"
    );
    // multiple keys
    assert_eq!(run("for $p in ((1,2), (1,1), (0,9)) return ()"), "");
    assert_eq!(
        run("for $x in (2,1), $y in (1,2) order by $x, $y descending return concat($x,'-',$y)"),
        "1-2 1-1 2-2 2-1"
    );
}

#[test]
fn flwor_nested_and_multiple_for() {
    assert_eq!(
        run("for $x in (1, 2), $y in (10, 20) return $x + $y"),
        "11 21 12 22"
    );
    assert_eq!(
        run("for $x in 1 to 3 return (for $y in 1 to $x return $y)"),
        "1 1 2 1 2 3"
    );
}

// ===== paths over documents ===================================================

const LIBRARY: &str = r#"<books>
  <book year="2005"><title>The Dog Handbook</title><author>Ann</author><price>30</price></book>
  <book year="2007"><title>Cats and dogs</title><author>Bob</author><price>25</price></book>
  <book year="2009"><title>Computer Science</title><author>Eve</author><price>80</price></book>
</books>"#;

fn lib_store() -> SharedStore {
    store_with("lib.xml", LIBRARY)
}

#[test]
fn path_navigation() {
    let s = lib_store();
    assert_eq!(
        run_to_string("count(doc('lib.xml')/books/book)", s.clone()).unwrap(),
        "3"
    );
    assert_eq!(
        run_to_string("doc('lib.xml')//book[1]/title/text()", s.clone()).unwrap(),
        "The Dog Handbook"
    );
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//book[@year='2007']/author/text()",
            s.clone()
        )
        .unwrap(),
        "Bob"
    );
    assert_eq!(
        run_to_string("doc('lib.xml')//book[last()]/author/text()", s.clone()).unwrap(),
        "Eve"
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//@year)", s.clone()).unwrap(),
        "3"
    );
    assert_eq!(
        run_to_string("doc('lib.xml')//book[price > 26]/title/text()", s.clone()).unwrap(),
        "The Dog Handbook Computer Science"
    );
}

#[test]
fn path_axes() {
    let s = lib_store();
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//title[. = 'Cats and dogs']/parent::book/@year/string(.)",
            s.clone()
        )
        .unwrap(),
        "2007"
    );
    assert_eq!(
        run_to_string(
            "count(doc('lib.xml')//author[. = 'Bob']/ancestor::*)",
            s.clone()
        )
        .unwrap(),
        "2"
    );
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//book[2]/preceding-sibling::book/author/text()",
            s.clone()
        )
        .unwrap(),
        "Ann"
    );
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//book[1]/following-sibling::book[1]/author/text()",
            s.clone()
        )
        .unwrap(),
        "Bob"
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//book/..)", s.clone()).unwrap(),
        "1"
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//title[1]/following::*)", s.clone()).unwrap(),
        "10"
    );
}

#[test]
fn path_wildcards_and_kind_tests() {
    let s = lib_store();
    assert_eq!(
        run_to_string("count(doc('lib.xml')/books/*)", s.clone()).unwrap(),
        "3"
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//text())", s.clone()).unwrap(),
        // 9 content text nodes + whitespace between elements
        run_to_string("count(doc('lib.xml')//text())", s.clone()).unwrap()
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//element(book))", s.clone()).unwrap(),
        "3"
    );
    assert_eq!(
        run_to_string("count(doc('lib.xml')//attribute())", s.clone()).unwrap(),
        "3"
    );
}

#[test]
fn document_order_and_dedup() {
    let s = lib_store();
    // union of overlapping sets dedups in document order
    assert_eq!(
        run_to_string(
            "count(doc('lib.xml')//book | doc('lib.xml')//book[1])",
            s.clone()
        )
        .unwrap(),
        "3"
    );
    assert_eq!(
        run_to_string(
            "count(doc('lib.xml')//book intersect doc('lib.xml')//book[@year='2005'])",
            s.clone()
        )
        .unwrap(),
        "1"
    );
    assert_eq!(
        run_to_string(
            "count(doc('lib.xml')//book except doc('lib.xml')//book[1])",
            s.clone()
        )
        .unwrap(),
        "2"
    );
}

#[test]
fn node_comparisons() {
    let s = lib_store();
    assert_eq!(
        run_to_string(
            "let $b := doc('lib.xml')//book[1] return $b is $b",
            s.clone()
        )
        .unwrap(),
        "true"
    );
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//book[1] << doc('lib.xml')//book[2]",
            s.clone()
        )
        .unwrap(),
        "true"
    );
    assert_eq!(
        run_to_string(
            "doc('lib.xml')//book[1] >> doc('lib.xml')//book[2]",
            s.clone()
        )
        .unwrap(),
        "false"
    );
}

// ===== constructors ===========================================================

#[test]
fn direct_constructors() {
    assert_eq!(run("<p>hi</p>"), "<p>hi</p>");
    assert_eq!(run("<p a=\"1\" b=\"2\"/>"), "<p a=\"1\" b=\"2\"/>");
    assert_eq!(run("<p>{1 + 1}</p>"), "<p>2</p>");
    assert_eq!(run("<p>{1, 2, 3}</p>"), "<p>1 2 3</p>");
    assert_eq!(run("<a><b>{ 'x' }</b><c/></a>"), "<a><b>x</b><c/></a>");
    assert_eq!(run("<p x=\"{1+1}y\"/>"), "<p x=\"2y\"/>");
    // escaped braces
    assert_eq!(run("<p>{{literal}}</p>"), "<p>{literal}</p>");
}

#[test]
fn constructors_copy_nodes() {
    let s = lib_store();
    let out = run_to_string("<li>{doc('lib.xml')//book[1]/title}</li>", s.clone()).unwrap();
    assert_eq!(out, "<li><title>The Dog Handbook</title></li>");
}

#[test]
fn computed_constructors() {
    assert_eq!(run("element foo { 'bar' }"), "<foo>bar</foo>");
    assert_eq!(
        run("element {concat('a','b')} { attribute x { 1+1 }, 'body' }"),
        "<ab x=\"2\">body</ab>"
    );
    assert_eq!(run("text { 'plain' }"), "plain");
    assert_eq!(run("comment { 'note' }"), "<!--note-->");
    assert_eq!(
        run("processing-instruction target { 'data' }"),
        "<?target data?>"
    );
}

#[test]
fn paper_flwor_listing_shape() {
    // §3.1 listing (adapted: ftcontains over constructed data)
    let s = store_with(
        "bill.xml",
        r#"<paymentorder><paymentorders><name>super computer</name><price>999</price></paymentorders><paymentorders><name>mouse</name><price>10</price></paymentorders></paymentorder>"#,
    );
    let out = run_to_string(
        r#"for $x at $i in doc("bill.xml")/paymentorder/paymentorders
           let $price := $x/price
           where $x/name ftcontains "computer"
           return <li>{$x/name}<eur>{data($price)}</eur></li>"#,
        s,
    )
    .unwrap();
    assert_eq!(out, "<li><name>super computer</name><eur>999</eur></li>");
}

#[test]
fn paper_fulltext_listing() {
    // §3.1: stemming + ftand
    let s = store_with(
        "books.xml",
        r#"<books>
            <book><title>Dogs and a cat</title><author>A</author></book>
            <book><title>The cat</title><author>B</author></book>
            <book><title>My dog</title><author>C</author></book>
        </books>"#,
    );
    let out = run_to_string(
        r#"for $b in doc("books.xml")/books/book
           where $b/title ftcontains ("dog" with stemming) ftand "cat"
           return $b/author/text()"#,
        s,
    )
    .unwrap();
    assert_eq!(out, "A");
}

// ===== updates ================================================================

#[test]
fn paper_update_listing() {
    // §3.2: insert + replace value
    let s = store_with("library.xml", "<books><book title=\"Old\"/></books>");
    let bill =
        parse_document(r#"<bill><items id="computer"><price>2000</price></items></bill>"#).unwrap();
    // note: the paper's path is bill/items[@id]/price
    let bill = {
        let mut st = s.borrow_mut();
        st.add_document(bill, Some("bill.xml"))
    };
    let _ = bill;
    run_to_string(
        r#"insert node <book title="Starwars"/> into doc("library.xml")/books,
           replace value of node doc("bill.xml")/bill/items[@id="computer"]/price with 1500"#,
        s.clone(),
    )
    .unwrap();
    let check = run_to_string(
        "count(doc('library.xml')/books/book), doc('bill.xml')//price/text()",
        s,
    )
    .unwrap();
    assert_eq!(check, "2 1500");
}

#[test]
fn update_snapshot_semantics() {
    // within one query, updates are not visible (no side effects until end)
    let s = store_with("d.xml", "<r><a/></r>");
    let out = run_to_string(
        "insert node <b/> into doc('d.xml')/r, count(doc('d.xml')/r/*)",
        s.clone(),
    )
    .unwrap();
    assert_eq!(out, "1", "the count sees the pre-update state");
    let after = run_to_string("count(doc('d.xml')/r/*)", s).unwrap();
    assert_eq!(after, "2", "the update applied at the end");
}

#[test]
fn update_insert_positions() {
    let s = store_with("d.xml", "<r><m/></r>");
    run_to_string(
        "insert node <f/> as first into doc('d.xml')/r,
         insert node <l/> as last into doc('d.xml')/r,
         insert node <b/> before doc('d.xml')/r/m,
         insert node <a/> after doc('d.xml')/r/m",
        s.clone(),
    )
    .unwrap();
    let names = run_to_string(
        "string-join(for $c in doc('d.xml')/r/* return name($c), ',')",
        s,
    )
    .unwrap();
    assert_eq!(names, "f,b,m,a,l");
}

#[test]
fn update_delete_and_rename() {
    let s = store_with("d.xml", "<r><a/><b/><c/></r>");
    run_to_string(
        "delete node doc('d.xml')/r/b, rename node doc('d.xml')/r/a as z",
        s.clone(),
    )
    .unwrap();
    let names = run_to_string(
        "string-join(for $c in doc('d.xml')/r/* return name($c), ',')",
        s,
    )
    .unwrap();
    assert_eq!(names, "z,c");
}

#[test]
fn update_replace_node() {
    let s = store_with("d.xml", "<r><old>1</old></r>");
    run_to_string(
        "replace node doc('d.xml')/r/old with <new>2</new>",
        s.clone(),
    )
    .unwrap();
    assert_eq!(run_to_string("doc('d.xml')/r/new/text()", s).unwrap(), "2");
}

#[test]
fn update_attribute_insert() {
    let s = store_with("d.xml", "<r/>");
    run_to_string(
        "insert node attribute lang { 'en' } into doc('d.xml')/r",
        s.clone(),
    )
    .unwrap();
    assert_eq!(
        run_to_string("doc('d.xml')/r/@lang/string(.)", s).unwrap(),
        "en"
    );
}

#[test]
fn transform_leaves_original_untouched() {
    let s = store_with("d.xml", "<r><v>1</v></r>");
    let out = run_to_string(
        "copy $c := doc('d.xml')/r modify replace value of node $c/v with '9' return $c/v/text()",
        s.clone(),
    )
    .unwrap();
    assert_eq!(out, "9");
    assert_eq!(run_to_string("doc('d.xml')/r/v/text()", s).unwrap(), "1");
}

#[test]
fn transform_copies_a_document_node_as_its_element() {
    let s = store_with("t.xml", "<site><a>1</a></site>");
    let copy = "copy $c := doc('t.xml') modify () return $c";
    assert_eq!(
        run_to_string(copy, s.clone()).unwrap(),
        "<site><a>1</a></site>"
    );
    assert_eq!(
        run_to_string(&format!("count(({copy})/self::site/a)"), s.clone()).unwrap(),
        "1"
    );
    // the constructor's cross-document copy agrees
    assert_eq!(
        run_to_string("<x>{doc('t.xml')}</x>", s).unwrap(),
        "<x><site><a>1</a></site></x>"
    );
}

/// Deeper than any recursion survives on a test thread's stack.
#[test]
fn deep_documents_are_read_compared_and_copied() {
    const DEEP: usize = 100_000;
    let xml = "<a>".repeat(DEEP) + "x" + &"</a>".repeat(DEEP);
    let s = store_with("deep.xml", &xml);
    let twin = parse_document(&xml).unwrap();
    s.borrow_mut().add_document(twin, Some("twin.xml"));
    let run = |q: &str| run_to_string(q, s.clone()).unwrap_or_else(|e| panic!("{q}: {e}"));
    assert_eq!(run("string(doc('deep.xml'))"), "x");
    assert_eq!(run("deep-equal(doc('deep.xml'), doc('twin.xml'))"), "true");
    assert_eq!(
        run("string(copy $c := doc('deep.xml') modify insert node <y>y</y> into $c return $c)"),
        "xy"
    );
}

// ===== scripting ==============================================================

#[test]
fn paper_scripting_listing() {
    // §3.3: block with declare/set; the inserted node is visible to later
    // statements in the same block
    let s = store_with("lib2.xml", "<books/>");
    let src = store_with(
        "src.xml",
        "<catalog><book><title>starwars</title></book></catalog>",
    );
    // merge the two stores: put src doc in same store as lib2
    {
        let doc =
            parse_document("<catalog><book><title>starwars</title></book></catalog>").unwrap();
        s.borrow_mut().add_document(doc, Some("src.xml"));
    }
    drop(src);
    let out = run_to_string(
        r#"{ declare variable $b;
             set $b := doc("src.xml")//book[title="starwars"];
             insert node $b into doc("lib2.xml")/books;
             set $b := doc("lib2.xml")//book[title="starwars"];
             insert node <comment>6 movies</comment> into $b;
             count(doc("lib2.xml")//book/comment) }"#,
        s.clone(),
    )
    .unwrap();
    assert_eq!(out, "1", "the insert is visible to the following statement");
    let check = run_to_string("doc('lib2.xml')//book/comment/text()", s).unwrap();
    assert_eq!(check, "6 movies");
}

#[test]
fn scripting_while_loop() {
    let out = run(r#"{ declare variable $i := 0;
                       declare variable $sum := 0;
                       while ($i < 5) { set $i := $i + 1; set $sum := $sum + $i; };
                       $sum }"#);
    assert_eq!(out, "15");
}

#[test]
fn scripting_exit_with() {
    let out = run(r#"
        declare sequential function local:f($x) {
            if ($x > 10) then exit with 'big' else ();
            'small'
        };
        local:f(20), local:f(5)"#);
    assert_eq!(out, "big small");
}

#[test]
fn user_functions() {
    assert_eq!(
        run("declare function local:sq($x) { $x * $x }; local:sq(7)"),
        "49"
    );
    assert_eq!(
        run("declare function local:fact($n) { if ($n le 1) then 1 else $n * local:fact($n - 1) }; local:fact(6)"),
        "720"
    );
    // typed params enforced
    assert_eq!(
        err_code("declare function local:f($x as xs:integer) { $x }; local:f('a')"),
        "XPTY0004"
    );
    // unknown function
    assert_eq!(err_code("local:nosuch(1)"), "XPST0017");
    assert_eq!(err_code("nosuchbuiltin(1)"), "XPST0017");
}

#[test]
fn default_function_namespace_applies_to_unprefixed_names() {
    assert_eq!(
        run(r#"declare namespace f = "urn:f";
               declare default function namespace "urn:f";
               declare function f:twice($x) { 2 * $x };
               twice(21)"#),
        "42"
    );
    // an unprefixed declaration takes it too, and `fn:` names then need
    // their prefix
    assert_eq!(
        run(r#"declare default function namespace "urn:g";
               declare function inc($x) { $x + 1 };
               fn:count((inc(1), inc(2)))"#),
        "2"
    );
    assert_eq!(
        err_code(r#"declare default function namespace "urn:g"; count((1, 2))"#),
        "XPST0017"
    );
}

#[test]
fn infinite_recursion_guarded() {
    assert_eq!(
        err_code("declare function local:f($x) { local:f($x) }; local:f(1)"),
        "XQDY0130"
    );
}

#[test]
fn global_variables() {
    assert_eq!(
        run("declare variable $x := 10; declare variable $y := $x * 2; $x + $y"),
        "30"
    );
}

// ===== style extension (§4.5) =================================================

#[test]
fn set_and_get_style_fall_back_to_attribute() {
    let s = store_with("p.xml", r#"<html><table id="thistable"/></html>"#);
    let out = run_to_string(
        r#"{ set style "border-margin" of doc('p.xml')//table[@id="thistable"] to "2px";
             get style "border-margin" of doc('p.xml')//table[@id="thistable"] }"#,
        s.clone(),
    )
    .unwrap();
    assert_eq!(out, "2px");
    // it landed in the style attribute
    let attr = run_to_string("doc('p.xml')//table/@style/string(.)", s).unwrap();
    assert_eq!(attr, "border-margin: 2px");
}

#[test]
fn get_missing_style_is_empty() {
    let s = store_with("p.xml", "<html><div/></html>");
    let out = run_to_string("get style \"color\" of doc('p.xml')//div", s).unwrap();
    assert_eq!(out, "");
}

// ===== event extensions need a host ==========================================

#[test]
fn event_attach_without_host_errors() {
    let s = store_with("p.xml", "<html><input id=\"b\"/></html>");
    let e = run_to_string(
        "declare updating function local:l($evt, $obj) { () };
         on event \"onclick\" at doc('p.xml')//input attach listener local:l",
        s,
    )
    .unwrap_err();
    assert_eq!(e.code, "XQIB0002");
}

// ===== dates (virtual clock) ==================================================

#[test]
fn current_datetime_is_deterministic() {
    assert_eq!(run("current-date()"), "2009-04-20");
    assert_eq!(run("string(current-dateTime())"), "2009-04-20T08:00:00");
    assert_eq!(run("year-from-date(current-date())"), "2009");
}

#[test]
fn date_arithmetic() {
    assert_eq!(run("xs:date('2009-04-24') - xs:date('2009-04-20')"), "P4D");
    assert_eq!(
        run("xs:date('2009-04-20') + xs:duration('P10D')"),
        "2009-04-30"
    );
    assert_eq!(
        run("xs:dateTime('2009-04-20T10:00:00') + xs:duration('PT90M')"),
        "2009-04-20T11:30:00"
    );
    assert_eq!(
        run("xs:date('2009-01-31') + xs:duration('P1M')"),
        "2009-02-28"
    );
}

// ===== deep-equal & misc ======================================================

#[test]
fn deep_equal_nodes() {
    assert_eq!(
        run("deep-equal(<a x=\"1\">t</a>, <a x=\"1\">t</a>)"),
        "true"
    );
    assert_eq!(run("deep-equal(<a x=\"1\"/>, <a x=\"2\"/>)"), "false");
    assert_eq!(run("deep-equal((1,2), (1,2))"), "true");
    assert_eq!(run("deep-equal((1,2), (2,1))"), "false");
}

#[test]
fn doc_not_found() {
    assert_eq!(err_code("doc('nope.xml')"), "FODC0002");
}

#[test]
fn comments_in_queries() {
    assert_eq!(run("1 (: add :) + (: nested (: ok :) :) 2"), "3");
}

#[test]
fn string_functions_on_nodes() {
    let s = lib_store();
    assert_eq!(
        run_to_string("string(doc('lib.xml')//book[1]/price)", s.clone()).unwrap(),
        "30"
    );
    assert_eq!(
        run_to_string("number(doc('lib.xml')//book[1]/price) + 1", s.clone()).unwrap(),
        "31"
    );
    assert_eq!(
        run_to_string("name(doc('lib.xml')/*)", s.clone()).unwrap(),
        "books"
    );
    assert_eq!(
        run_to_string("local-name(doc('lib.xml')/*)", s).unwrap(),
        "books"
    );
}

#[test]
fn contains_div_example_from_paper() {
    // §2.2: //div[contains(., 'love')]
    let s = store_with(
        "page.xml",
        r#"<html><body><div>I love XQuery</div><div>meh</div></body></html>"#,
    );
    assert_eq!(
        run_to_string("count(doc('page.xml')//div[contains(., 'love')])", s).unwrap(),
        "1"
    );
}

#[test]
fn result_context_and_focus_errors() {
    assert_eq!(err_code("."), "XPDY0002");
    assert_eq!(err_code("//div"), "XPDY0002");
    assert_eq!(err_code("position()"), "XPDY0002");
    assert_eq!(err_code("$undefined"), "XPDY0002");
}

#[test]
fn run_query_returns_items() {
    let (seq, _ctx) = run_query("1, 'two', true()", shared_store()).unwrap();
    assert_eq!(seq.len(), 3);
}

#[test]
fn modules_and_imports() {
    let mut reg = xqib_xquery::ModuleRegistry::new();
    reg.register_source(
        r#"module namespace m = "urn:math";
           declare function m:double($x) { $x * 2 };
           declare function m:quad($x) { m:double(m:double($x)) };"#,
    )
    .unwrap();
    let q = xqib_xquery::compile_with(
        r#"import module namespace m = "urn:math";
           m:quad(5)"#,
        &reg,
        false,
    )
    .unwrap();
    let plan = xqib_xquery::plan::lower(&q);
    let store = shared_store();
    let mut ctx = xqib_xquery::DynamicContext::new(store, plan.static_context().clone());
    let out = plan.execute(&mut ctx).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].as_atomic().unwrap().string_value(), "20");
}

#[test]
fn web_service_module_port_extension() {
    // §3.4: `module namespace ex="www.example.ch" port:2001;`
    let lib = xqib_xquery::parser::parse_library(
        r#"module namespace ex = "www.example.ch" port:2001;
           declare option fn:webservice "true";
           declare function ex:mul($a, $b) { $a * $b };"#,
    )
    .unwrap();
    assert_eq!(lib.port, Some(2001));
    assert_eq!(lib.prolog.functions.len(), 1);
    assert_eq!(lib.prolog.options.len(), 1);
}
