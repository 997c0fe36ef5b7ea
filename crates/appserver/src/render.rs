//! Server-side page rendering: the XQuery that the Reference 2.0
//! application server runs to produce article pages (the "before"
//! deployment of §6.1). The same rendering logic later runs in the browser
//! after migration — that is the whole point of the scenario.

use std::sync::OnceLock;

/// The corpus document URI inside the XML database.
pub const CORPUS_URI: &str = "corpus.xml";

/// The external variable the `/page` plan reads the article ID from.
pub const ARTICLE_VAR: &str = "article";

/// The browse page for the article `$article`: title, author, the
/// reference table and the reference statistics ("statistics, years…")
/// inside the HTML envelope. The one page body: the prepared route and
/// [`article_page_query`] differ only in how their prolog binds
/// `$article`.
fn article_page_body() -> String {
    format!(
        r#"<html>
  <head><title>Reference 2.0</title></head>
  <body>
    <div id="nav">Reference 2.0</div>
    {{ let $a := doc("{CORPUS_URI}")//article[@id = ${ARTICLE_VAR}]
let $refs := $a/references/reference
return
  <div id="content">
    <h1>{{data($a/title)}}</h1>
    <p class="author">{{data($a/author)}}</p>
    <table id="refs">{{
      for $r in $refs
      order by number($r/year)
      return <tr><td>{{data($r/cited)}}</td><td>{{data($r/year)}}</td></tr>
    }}</table>
    <div id="stats">
      <span id="refcount">{{count($refs)}}</span>
      <span id="minyear">{{min(for $r in $refs return number($r/year))}}</span>
      <span id="maxyear">{{max(for $r in $refs return number($r/year))}}</span>
    </div>
  </div> }}
  </body>
</html>"#
    )
}

/// The `/page` query with `$article` declared external: one text, hence
/// one cached plan, for every article. The server binds the requested ID
/// as an `xs:string` when it executes the plan, so the ID is a value and
/// never query text.
pub fn article_page_prepared() -> &'static str {
    static PREPARED: OnceLock<String> = OnceLock::new();
    PREPARED.get_or_init(|| {
        format!(
            "declare variable ${ARTICLE_VAR} external;\n{}",
            article_page_body()
        )
    })
}

/// The page for one article as a self-contained query: the same body,
/// with `$article` declared in the prolog as a string literal holding the
/// escaped ID.
pub fn article_page_query(article_id: &str) -> String {
    let literal = article_id.replace('&', "&amp;").replace('"', "&quot;");
    format!(
        "declare variable ${ARTICLE_VAR} := \"{literal}\";\n{}",
        article_page_body()
    )
}

/// XQuery for the journal index page (the entry point of a browse session).
pub fn index_page_query() -> String {
    format!(
        r#"<html>
  <head><title>Reference 2.0</title></head>
  <body>
    <div id="nav">Reference 2.0</div>
    <ul id="journals">{{
      for $j in doc("{CORPUS_URI}")//journal
      return <li id="{{data($j/@id)}}">{{data($j/title)}}
        ({{count($j//article)}} articles)</li>
    }}</ul>
  </body>
</html>"#
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, CorpusSpec};
    use crate::xmldb::XmlDb;

    fn db() -> XmlDb {
        let mut db = XmlDb::new();
        let xml = generate_corpus(&CorpusSpec::default());
        db.load(CORPUS_URI, &xml).unwrap();
        db
    }

    #[test]
    fn article_page_renders() {
        let mut db = db();
        let html = db.query(&article_page_query("j0-v0-i0-a0")).unwrap();
        assert!(html.contains("<h1>"), "{html}");
        assert!(html.contains("<table id=\"refs\">"));
        assert!(html.contains("<span id=\"refcount\">5</span>"));
        assert!(html.contains("(j0-v0-i0-a0)"));
    }

    #[test]
    fn references_sorted_by_year() {
        let mut db = db();
        let html = db.query(&article_page_query("j0-v0-i0-a1")).unwrap();
        // extract years from the table and check ordering
        let years: Vec<i32> = html
            .split("<td>")
            .filter_map(|part| {
                let v = part.split('<').next()?;
                v.parse::<i32>().ok()
            })
            .collect();
        assert!(!years.is_empty());
        let mut sorted = years.clone();
        sorted.sort_unstable();
        assert_eq!(years, sorted);
    }

    /// Runs `src` the way `XmlDb` does, binding `$article` when given, and
    /// returns the rendered page with the number of slots its construction
    /// document held when the page was rendered.
    fn render_counting(db: &XmlDb, src: &str, article: Option<&str>) -> (String, usize) {
        let registry = xqib_xquery::ModuleRegistry::new();
        let plan = xqib_xquery::plancache::compile_plan(src, &registry, false).unwrap();
        let (mark, construction) = db.store.borrow_mut().open_scratch();
        let mut ctx = xqib_xquery::DynamicContext::constructing_into(
            db.store.clone(),
            plan.static_context().clone(),
            construction,
        );
        if let Some(id) = article {
            ctx.bind_global(
                xqib_dom::QName::local(ARTICLE_VAR),
                vec![xqib_xdm::Item::string(id)],
            );
        }
        let result = plan.execute(&mut ctx).unwrap();
        let page = xqib_xquery::runtime::render_sequence(&ctx, &result);
        drop(ctx);
        let built = db.store.borrow().doc(construction).len();
        db.store.borrow_mut().release_scratch(mark);
        (page, built)
    }

    /// A page is built once: its construction document ends with exactly
    /// the slots of the page parsed back, nested constructors and the
    /// fresh FLWOR bodies adopted rather than copied into their parents.
    #[test]
    fn a_page_builds_each_of_its_nodes_once() {
        let db = db();
        for (src, article) in [
            (article_page_prepared().to_string(), Some("j0-v0-i0-a0")),
            (index_page_query(), None),
        ] {
            let (page, built) = render_counting(&db, &src, article);
            let parsed = xqib_dom::parse_document(&page).unwrap().len();
            assert_eq!(built, parsed, "{page}");
        }
    }

    #[test]
    fn index_page_lists_journals() {
        let mut db = db();
        let html = db.query(&index_page_query()).unwrap();
        assert_eq!(html.matches("<li ").count(), 2);
        assert!(html.contains("24 articles"));
    }
}
