//! §3.4 — XQuery modules as web services: "a Web service corresponds to an
//! XQuery module". A [`WebServiceHost`] wraps a library module declared
//! with `declare option fn:webservice "true"` (and the paper's
//! `port:NNNN` module extension) and serves its functions over REST-style
//! calls, so a browser page can
//! `import module namespace ab = "…"` and call `ab:mul(2, 5)` remotely.

use std::rc::Rc;

use xqib_dom::name::FN_NS;
use xqib_dom::store::shared_store;
use xqib_xdm::{Atomic, Item, Sequence, XdmError, XdmResult};
use xqib_xquery::ast::LibraryModule;
use xqib_xquery::context::{DynamicContext, StaticContext};
use xqib_xquery::parser;
use xqib_xquery::plan::lower_functions;

use crate::server::{param, params, split_url};

/// A web-service endpoint backed by an XQuery library module.
pub struct WebServiceHost {
    module: Rc<LibraryModule>,
    sctx: Rc<StaticContext>,
    /// number of remote calls served (successful or not)
    pub calls: u64,
    /// number of remote calls that ended in an error response
    pub failed_calls: u64,
}

impl WebServiceHost {
    /// Parses the module source; requires the `fn:webservice "true"`
    /// option the paper's example declares.
    pub fn new(source: &str) -> XdmResult<Self> {
        let module = parser::parse_library(source)?;
        let is_service = module
            .prolog
            .options
            .iter()
            .any(|(q, v)| q.matches(Some(FN_NS), "webservice") && v == "true");
        if !is_service {
            return Err(XdmError::new(
                "XQIB0008",
                "module does not declare option fn:webservice \"true\"",
            ));
        }
        let mut sctx = StaticContext::default();
        for f in &module.prolog.functions {
            sctx.declare_function(f.clone());
        }
        Ok(WebServiceHost {
            module: Rc::new(module),
            // every exported body is lowered once, here
            sctx: lower_functions(&Rc::new(sctx)),
            calls: 0,
            failed_calls: 0,
        })
    }

    /// The namespace URI the module exports (what clients import).
    pub fn namespace(&self) -> &str {
        &self.module.uri
    }

    /// The `port:NNNN` module extension, if declared.
    pub fn port(&self) -> Option<u16> {
        self.module.port
    }

    /// Exported function names (local parts) with their arities.
    pub fn exports(&self) -> Vec<(String, usize)> {
        self.module
            .prolog
            .functions
            .iter()
            .map(|f| (f.name.local.to_string(), f.params.len()))
            .collect()
    }

    /// Invokes an exported function with atomic arguments (remote calls
    /// marshal atomics; numbers are detected, everything else is a string,
    /// mirroring simple WSDL/REST marshalling). The result is element
    /// content: nodes as their markup, atomics as escaped text.
    pub fn call(&mut self, local: &str, args: &[&str]) -> XdmResult<String> {
        self.calls += 1;
        let r = self.call_inner(local, args);
        if r.is_err() {
            self.failed_calls += 1;
        }
        r
    }

    fn call_inner(&mut self, local: &str, args: &[&str]) -> XdmResult<String> {
        let qname = xqib_dom::QName::ns(&self.module.uri, local);
        let decl = self
            .sctx
            .lookup_function(&qname, args.len())
            .ok_or_else(|| XdmError::unknown_function(local, args.len()))?;
        let store = shared_store();
        let mut ctx = DynamicContext::new(store, self.sctx.clone());
        let argv: Vec<Sequence> = args
            .iter()
            .map(|a| {
                vec![if let Ok(i) = a.parse::<i64>() {
                    Item::integer(i)
                } else if let Ok(d) = a.parse::<f64>() {
                    Item::double(d)
                } else {
                    Item::Atomic(Atomic::str(*a))
                }]
            })
            .collect();
        let result = xqib_xquery::exec::call_user_function(&mut ctx, &decl, argv)?;
        Ok(xqib_xquery::runtime::render_sequence_with(
            &ctx,
            &result,
            |s| xml_escape(&s),
        ))
    }

    /// HTTP-ish entry point: `/call?fn=mul&arg=2&arg=5`, plus `/wsdl`
    /// returning a description document (the paper's import location).
    pub fn handle(&mut self, url: &str) -> (u16, String) {
        let (path, query) = split_url(url);
        match path.as_str() {
            "/wsdl" => {
                let mut body = format!(
                    "<service namespace=\"{}\"{}>",
                    self.namespace(),
                    match self.port() {
                        Some(p) => format!(" port=\"{p}\""),
                        None => String::new(),
                    }
                );
                for (name, arity) in self.exports() {
                    body.push_str(&format!("<function name=\"{name}\" arity=\"{arity}\"/>"));
                }
                body.push_str("</service>");
                (200, body)
            }
            "/call" => {
                let args: Vec<String> = params(&query, "arg").collect();
                let Some(fname) = param(&query, "fn") else {
                    self.failed_calls += 1;
                    return (
                        400,
                        error_body("XQIB0011", "missing fn parameter").to_string(),
                    );
                };
                let arg_refs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
                match self.call(&fname, &arg_refs) {
                    Ok(v) => (200, format!("<result>{v}</result>")),
                    // client errors (asking for a function the service does
                    // not export) are 4xx; everything else is a service
                    // fault — the distinction clients key retries on
                    Err(e) if e.code == "XPST0017" => (404, error_body(&e.code, &e.message)),
                    Err(e) => (500, error_body(&e.code, &e.message)),
                }
            }
            other => (404, error_body("XQIB0012", &format!("no route {other}"))),
        }
    }
}

/// A structured error payload: `<error code="…">message</error>` with the
/// message XML-escaped, so clients can parse any failure uniformly.
fn error_body(code: &str, message: &str) -> String {
    format!(
        "<error code=\"{}\">{}</error>",
        xml_escape(code),
        xml_escape(message)
    )
}

fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The paper's §3.4 module, verbatim.
    const PAPER_MODULE: &str = r#"module namespace ex="www.example.ch" port:2001;
declare option fn:webservice "true";
declare function ex:mul($a,$b) {$a * $b};"#;

    #[test]
    fn paper_module_hosts_and_calls() {
        let mut host = WebServiceHost::new(PAPER_MODULE).unwrap();
        assert_eq!(host.namespace(), "www.example.ch");
        assert_eq!(host.port(), Some(2001));
        assert_eq!(host.exports(), vec![("mul".to_string(), 2)]);
        // the paper's call: ab:mul(2, 5)
        assert_eq!(host.call("mul", &["2", "5"]).unwrap(), "10");
        assert_eq!(host.calls, 1);
    }

    #[test]
    fn http_entry_points() {
        let mut host = WebServiceHost::new(PAPER_MODULE).unwrap();
        let (status, wsdl) = host.handle("http://localhost:2001/wsdl");
        assert_eq!(status, 200);
        assert!(wsdl.contains("namespace=\"www.example.ch\""));
        assert!(wsdl.contains("port=\"2001\""));
        assert!(wsdl.contains("<function name=\"mul\" arity=\"2\"/>"));
        let (status, body) = host.handle("http://localhost:2001/call?fn=mul&arg=6&arg=7");
        assert_eq!(status, 200);
        assert_eq!(body, "<result>42</result>");
        // asking for an unexported function is the client's fault: 404
        let (status, body) = host.handle("/call?fn=nosuch&arg=1");
        assert_eq!(status, 404);
        assert!(body.contains("code=\"XPST0017\""), "{body}");
        let (status, body) = host.handle("/call");
        assert_eq!(status, 400);
        assert!(body.contains("code=\"XQIB0011\""), "{body}");
        let (status, body) = host.handle("/other");
        assert_eq!(status, 404);
        assert!(body.contains("code=\"XQIB0012\""), "{body}");
        assert_eq!(host.calls, 2, "only real invocations count as calls");
        assert_eq!(host.failed_calls, 2, "nosuch + missing fn");
    }

    #[test]
    fn dynamic_errors_are_service_faults() {
        let mut host = WebServiceHost::new(
            r#"module namespace d = "urn:div";
declare option fn:webservice "true";
declare function d:inv($x) { 1 div $x };"#,
        )
        .unwrap();
        let (status, body) = host.handle("/call?fn=inv&arg=0");
        assert_eq!(status, 500, "{body}");
        assert!(body.starts_with("<error code=\""), "{body}");
        assert_eq!(host.failed_calls, 1);
        // the error body itself parses as XML
        assert!(xqib_dom::parse_document(&body).is_ok(), "{body}");
    }

    #[test]
    fn string_arguments_marshal() {
        let mut host = WebServiceHost::new(
            r#"module namespace g = "urn:greet";
declare option fn:webservice "true";
declare function g:hello($name) { concat("Hello, ", $name, "!") };
declare function g:len($s) { string-length($s) };
declare function g:both($a, $b) { concat($a, "|", $b) };"#,
        )
        .unwrap();
        assert_eq!(host.call("hello", &["World"]).unwrap(), "Hello, World!");
        let (_, body) = host.handle("/call?fn=hello&arg=XQuery+fans");
        assert_eq!(body, "<result>Hello, XQuery fans!</result>");
        // `%xx` escapes decode: `a%26b` is the three characters `a&b`
        let (_, body) = host.handle("/call?fn=len&arg=a%26b");
        assert_eq!(body, "<result>3</result>");
        // and an atomic result is escaped text, so the body is well formed
        let (_, body) = host.handle("/call?fn=hello&arg=a%26b");
        assert_eq!(body, "<result>Hello, a&amp;b!</result>");
        let doc = xqib_dom::parse_document(&body).unwrap();
        assert_eq!(doc.string_value(doc.root()), "Hello, a&b!");
        // every repeated `arg` is kept, in order, and `fn` decodes too
        let (_, body) = host.handle("/call?fn=b%6Fth&arg=x%2By&arg=%3D");
        assert_eq!(body, "<result>x+y|=</result>");
    }

    #[test]
    fn non_service_module_rejected() {
        let e = match WebServiceHost::new(
            r#"module namespace x = "urn:x";
declare function x:f() { 1 };"#,
        ) {
            Ok(_) => panic!("expected rejection"),
            Err(e) => e,
        };
        assert_eq!(e.code, "XQIB0008");
    }
}
