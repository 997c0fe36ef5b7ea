//! §3.4 end to end: an XQuery module published as a web service, called
//! from a page in the browser — both remotely (through the virtual
//! network, as the paper's WSDL import implies) and locally (module
//! shipped to the client, the migration idiom).

use std::cell::RefCell;
use std::rc::Rc;

use xqib::appserver::WebServiceHost;
use xqib::browser::net::{NetOutcome, Request, Response};
use xqib::core::plugin::{Plugin, PluginConfig};
use xqib::dom::QName;
use xqib::xdm::XdmError;
use xqib::xquery::functions::native;
use xqib::xquery::ModuleRegistry;

/// The paper's §3.4 service module, verbatim.
const SERVICE: &str = r#"module namespace ex="www.example.ch" port:2001;
declare option fn:webservice "true";
declare function ex:mul($a,$b) {$a * $b};"#;

/// The paper's §3.4 client listing, minimally adapted (`input/@value`
/// instead of the listing's `input/value` pseudo-child).
const CLIENT_PAGE: &str = r#"<html><head>
<script type="text/xquery"><![CDATA[
import module namespace ab = "www.example.ch"
  at "http://localhost:2001/wsdl";
replace value of node //input[@name="textbox"]/@value
with ab:mul(2, 5)
]]></script></head>
<body><input name="textbox" value=""/></body></html>"#;

#[test]
fn remote_call_through_the_virtual_network() {
    let service = Rc::new(RefCell::new(WebServiceHost::new(SERVICE).unwrap()));
    let mut plugin = Plugin::new(PluginConfig::default());
    // the service listens on its declared port
    {
        let service = service.clone();
        let port = service.borrow().port().unwrap();
        plugin.host.borrow_mut().net.register(
            &format!("http://localhost:{port}"),
            10,
            move |req| {
                let (status, body) = service.borrow_mut().handle(&req.url);
                Response {
                    status,
                    body,
                    content_type: "application/xml".into(),
                }
            },
        );
    }
    // the import's function resolves to a remote-call stub (what a WSDL
    // import generates)
    {
        let host = plugin.host.clone();
        plugin.ctx.register_native(
            QName::ns("www.example.ch", "mul"),
            2,
            native(move |ctx, args| {
                let a = args[0]
                    .first()
                    .map(|i| i.string_value(&ctx.store.borrow()))
                    .unwrap_or_default();
                let b = args[1]
                    .first()
                    .map(|i| i.string_value(&ctx.store.borrow()))
                    .unwrap_or_default();
                let url = format!("http://localhost:2001/call?fn=mul&arg={a}&arg={b}");
                let outcome = host.borrow_mut().net.fetch_at(&Request::get(&url), 0);
                let NetOutcome::Reply { resp, .. } = outcome else {
                    return Err(XdmError::new("XQIB0009", "service request lost"));
                };
                // <result>10</result> → 10
                let value = resp
                    .body
                    .trim_start_matches("<result>")
                    .trim_end_matches("</result>")
                    .to_string();
                Ok(vec![xqib::xdm::Item::string(value)])
            }),
        );
    }
    plugin.load_page(CLIENT_PAGE).unwrap();
    assert!(
        plugin
            .serialize_page()
            .contains(r#"<input name="textbox" value="10"/>"#),
        "{}",
        plugin.serialize_page()
    );
    assert_eq!(service.borrow().calls, 1, "the remote service was invoked");
}

#[test]
fn local_module_import_is_equivalent() {
    // the same module shipped to the client: import resolves locally,
    // no network at all — the "code moves freely between tiers" claim
    let mut registry = ModuleRegistry::new();
    registry.register_source(SERVICE).unwrap();
    let mut plugin = Plugin::new(PluginConfig {
        modules: registry,
        ..Default::default()
    });
    plugin.load_page(CLIENT_PAGE).unwrap();
    assert!(plugin
        .serialize_page()
        .contains(r#"<input name="textbox" value="10"/>"#));
    assert_eq!(plugin.host.borrow().net.stats.requests, 0, "fully local");
}

#[test]
fn wsdl_document_describes_the_service() {
    let mut service = WebServiceHost::new(SERVICE).unwrap();
    let (status, wsdl) = service.handle("http://localhost:2001/wsdl");
    assert_eq!(status, 200);
    let doc = xqib::dom::parse_document(&wsdl).unwrap();
    let root = doc.children(doc.root())[0];
    assert_eq!(
        doc.get_attribute(root, None, "namespace"),
        Some("www.example.ch")
    );
    assert_eq!(doc.get_attribute(root, None, "port"), Some("2001"));
}
