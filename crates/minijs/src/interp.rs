//! The interpreter and its DOM bindings.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use xqib_dom::{DocId, NodeRef, QName, SharedStore};
use xqib_xquery::context::DynamicContext;
use xqib_xquery::plancache::{compile_plan, PlanCache};
use xqib_xquery::runtime::ModuleRegistry;

use crate::ast::*;
use crate::parser::parse_program;

/// Runtime error.
#[derive(Debug, Clone)]
pub struct JsError(pub String);

impl fmt::Display for JsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JS error: {}", self.0)
    }
}
impl std::error::Error for JsError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsError> {
    Err(JsError(msg.into()))
}

/// Host singletons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostObject {
    Document,
    Window,
    Navigator,
    Screen,
}

/// A JavaScript value.
#[derive(Clone)]
pub enum Value {
    Number(f64),
    Str(String),
    Bool(bool),
    Null,
    Undefined,
    Node(NodeRef),
    /// `document.evaluate` snapshot result (§2.2)
    Snapshot(Rc<Vec<NodeRef>>),
    Function(Rc<JsFunction>),
    Array(Rc<RefCell<Vec<Value>>>),
    Object(Rc<RefCell<HashMap<String, Value>>>),
    Host(HostObject),
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Number(n) => write!(f, "Number({n})"),
            Value::Str(s) => write!(f, "Str({s:?})"),
            Value::Bool(b) => write!(f, "Bool({b})"),
            Value::Null => write!(f, "Null"),
            Value::Undefined => write!(f, "Undefined"),
            Value::Node(n) => write!(f, "Node({n:?})"),
            Value::Snapshot(s) => write!(f, "Snapshot(len={})", s.len()),
            Value::Function(func) => write!(f, "Function({:?})", func.name),
            Value::Array(a) => write!(f, "Array(len={})", a.borrow().len()),
            Value::Object(_) => write!(f, "Object"),
            Value::Host(h) => write!(f, "Host({h:?})"),
        }
    }
}

impl Value {
    pub fn truthy(&self) -> bool {
        match self {
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
            Value::Null | Value::Undefined => false,
            _ => true,
        }
    }

    /// JS-style string coercion (`"" + v`).
    pub fn to_js_string(&self) -> String {
        match self {
            Value::Number(n) => format_number(*n),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => b.to_string(),
            Value::Null => "null".to_string(),
            Value::Undefined => "undefined".to_string(),
            Value::Node(_) => "[object Node]".to_string(),
            Value::Snapshot(_) => "[object XPathResult]".to_string(),
            Value::Function(_) => "function".to_string(),
            Value::Array(a) => a
                .borrow()
                .iter()
                .map(|v| v.to_js_string())
                .collect::<Vec<_>>()
                .join(","),
            Value::Object(_) => "[object Object]".to_string(),
            Value::Host(_) => "[object Host]".to_string(),
        }
    }

    pub fn to_number(&self) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Str(s) => s.trim().parse().unwrap_or(f64::NAN),
            Value::Bool(true) => 1.0,
            Value::Bool(false) | Value::Null => 0.0,
            _ => f64::NAN,
        }
    }
}

fn format_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 && !n.is_nan() && !n.is_infinite() {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

enum Flow {
    Normal,
    Return(Value),
}

/// The engine: shared DOM store + one document + globals.
pub struct JsEngine {
    pub store: SharedStore,
    pub doc: DocId,
    globals: HashMap<String, Value>,
    /// alert log (like the XQIB browser's)
    pub alerts: Vec<String>,
    /// listener registrations made via `addEventListener`, for the host to
    /// bind onto the shared event system
    pending_registrations: Vec<(NodeRef, String, Value)>,
    pending_removals: Vec<(NodeRef, String, Value)>,
    /// window.status mirror (set via `self.status = …`)
    pub window_status: String,
    /// navigator/screen data (copies of the BOM's)
    pub navigator_app_name: String,
    pub screen_height: f64,
    pub screen_width: f64,
    /// executed-statement counter (perf experiments)
    pub ops: u64,
    /// lowered XPath plans for `document.evaluate`, least recently used
    /// first out
    xpath_plans: PlanCache,
    /// where `document.evaluate` constructs: one document for the
    /// engine's lifetime, made on first use and never cleared, since the
    /// snapshots it returns may point into it
    construction_doc: Option<DocId>,
}

/// XPath plans a page keeps: more than the handful of distinct expressions
/// a page evaluates, so only a page that builds them in a loop evicts.
const XPATH_PLAN_CAPACITY: usize = 64;

impl JsEngine {
    pub fn new(store: SharedStore, doc: DocId) -> Self {
        JsEngine {
            store,
            doc,
            globals: HashMap::new(),
            alerts: Vec::new(),
            pending_registrations: Vec::new(),
            pending_removals: Vec::new(),
            window_status: String::new(),
            navigator_app_name: "Microsoft Internet Explorer".to_string(),
            screen_height: 1024.0,
            screen_width: 1280.0,
            ops: 0,
            xpath_plans: PlanCache::new(XPATH_PLAN_CAPACITY),
            construction_doc: None,
        }
    }

    /// Runs a program in the global scope.
    pub fn run(&mut self, src: &str) -> Result<(), JsError> {
        let program = parse_program(src).map_err(JsError)?;
        // top-level runs with an empty scope stack: `var` goes straight to
        // the globals, immediately visible to called functions (JS
        // script-scope semantics)
        let mut scopes: Vec<HashMap<String, Value>> = Vec::new();
        // hoist function declarations
        for stmt in &program.stmts {
            if let JsStmt::FunctionDecl(name, f) = stmt {
                self.globals
                    .insert(name.clone(), Value::Function(f.clone()));
            }
        }
        for stmt in &program.stmts {
            match self.exec_stmt(stmt, &mut scopes)? {
                Flow::Normal => {}
                Flow::Return(_) => break,
            }
        }
        Ok(())
    }

    /// Calls a function value with arguments (listener dispatch).
    pub fn call_value(&mut self, f: &Value, args: Vec<Value>) -> Result<Value, JsError> {
        match f {
            Value::Function(func) => self.call_function(func, args),
            _ => err("not a function"),
        }
    }

    /// Builds a DOM event object and invokes the listener.
    pub fn dispatch_to(
        &mut self,
        listener: &Value,
        event_type: &str,
        target: NodeRef,
        button: u8,
    ) -> Result<Value, JsError> {
        let mut props = HashMap::new();
        props.insert("target".to_string(), Value::Node(target));
        props.insert("type".to_string(), Value::Str(event_type.to_string()));
        props.insert("button".to_string(), Value::Number(button as f64));
        let event = Value::Object(Rc::new(RefCell::new(props)));
        self.call_value(listener, vec![event])
    }

    /// Listener registrations accumulated since the last call.
    pub fn take_registrations(&mut self) -> Vec<(NodeRef, String, Value)> {
        std::mem::take(&mut self.pending_registrations)
    }

    pub fn take_removals(&mut self) -> Vec<(NodeRef, String, Value)> {
        std::mem::take(&mut self.pending_removals)
    }

    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    fn call_function(&mut self, func: &Rc<JsFunction>, args: Vec<Value>) -> Result<Value, JsError> {
        let mut scopes = vec![HashMap::new()];
        for (i, p) in func.params.iter().enumerate() {
            scopes[0].insert(p.clone(), args.get(i).cloned().unwrap_or(Value::Undefined));
        }
        for stmt in &func.body {
            if let JsStmt::FunctionDecl(name, f) = stmt {
                scopes[0].insert(name.clone(), Value::Function(f.clone()));
            }
        }
        for stmt in &func.body {
            match self.exec_stmt(stmt, &mut scopes)? {
                Flow::Normal => {}
                Flow::Return(v) => return Ok(v),
            }
        }
        Ok(Value::Undefined)
    }

    fn exec_stmts(
        &mut self,
        stmts: &[JsStmt],
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Flow, JsError> {
        for stmt in stmts {
            match self.exec_stmt(stmt, scopes)? {
                Flow::Normal => {}
                r @ Flow::Return(_) => return Ok(r),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &JsStmt,
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Flow, JsError> {
        self.ops += 1;
        match stmt {
            JsStmt::VarDecl(name, init) => {
                let v = match init {
                    Some(e) => self.eval(e, scopes)?,
                    None => Value::Undefined,
                };
                match scopes.last_mut() {
                    Some(scope) => {
                        scope.insert(name.clone(), v);
                    }
                    None => {
                        self.globals.insert(name.clone(), v);
                    }
                }
                Ok(Flow::Normal)
            }
            JsStmt::Expr(e) => {
                self.eval(e, scopes)?;
                Ok(Flow::Normal)
            }
            JsStmt::If(cond, then, els) => {
                if self.eval(cond, scopes)?.truthy() {
                    self.exec_stmts(then, scopes)
                } else {
                    self.exec_stmts(els, scopes)
                }
            }
            JsStmt::While(cond, body) => {
                let mut guard = 0u64;
                while self.eval(cond, scopes)?.truthy() {
                    if let r @ Flow::Return(_) = self.exec_stmts(body, scopes)? {
                        return Ok(r);
                    }
                    guard += 1;
                    if guard > 50_000_000 {
                        return err("while loop guard exceeded");
                    }
                }
                Ok(Flow::Normal)
            }
            JsStmt::For(init, cond, step, body) => {
                if let Some(i) = init {
                    self.exec_stmt(i, scopes)?;
                }
                let mut guard = 0u64;
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c, scopes)?.truthy() {
                            break;
                        }
                    }
                    if let r @ Flow::Return(_) = self.exec_stmts(body, scopes)? {
                        return Ok(r);
                    }
                    if let Some(s) = step {
                        self.eval(s, scopes)?;
                    }
                    guard += 1;
                    if guard > 50_000_000 {
                        return err("for loop guard exceeded");
                    }
                }
                Ok(Flow::Normal)
            }
            JsStmt::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, scopes)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(v))
            }
            JsStmt::FunctionDecl(..) => Ok(Flow::Normal), // hoisted
        }
    }

    fn lookup(&self, name: &str, scopes: &[HashMap<String, Value>]) -> Option<Value> {
        for scope in scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        self.globals.get(name).cloned()
    }

    fn assign_ident(&mut self, name: &str, value: Value, scopes: &mut [HashMap<String, Value>]) {
        for scope in scopes.iter_mut().rev() {
            if scope.contains_key(name) {
                scope.insert(name.to_string(), value);
                return;
            }
        }
        // implicit global, like sloppy-mode JS
        self.globals.insert(name.to_string(), value);
    }

    fn eval(
        &mut self,
        e: &JsExpr,
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Value, JsError> {
        self.ops += 1;
        match e {
            JsExpr::Number(n) => Ok(Value::Number(*n)),
            JsExpr::Str(s) => Ok(Value::Str(s.clone())),
            JsExpr::Bool(b) => Ok(Value::Bool(*b)),
            JsExpr::Null => Ok(Value::Null),
            JsExpr::Undefined => Ok(Value::Undefined),
            JsExpr::Array(items) => {
                let mut v = Vec::with_capacity(items.len());
                for i in items {
                    v.push(self.eval(i, scopes)?);
                }
                Ok(Value::Array(Rc::new(RefCell::new(v))))
            }
            JsExpr::Ident(name) => match name.as_str() {
                "document" => Ok(Value::Host(HostObject::Document)),
                "window" | "self" | "top" => Ok(Value::Host(HostObject::Window)),
                "navigator" => Ok(Value::Host(HostObject::Navigator)),
                "screen" => Ok(Value::Host(HostObject::Screen)),
                _ => self
                    .lookup(name, scopes)
                    .ok_or_else(|| JsError(format!("`{name}` is not defined"))),
            },
            JsExpr::FunctionLit(f) => Ok(Value::Function(f.clone())),
            JsExpr::Not(inner) => Ok(Value::Bool(!self.eval(inner, scopes)?.truthy())),
            JsExpr::Neg(inner) => Ok(Value::Number(-self.eval(inner, scopes)?.to_number())),
            JsExpr::Binary(op, l, r) => self.eval_binary(*op, l, r, scopes),
            JsExpr::Member(obj, name) => {
                let o = self.eval(obj, scopes)?;
                self.get_member(&o, name)
            }
            JsExpr::Index(obj, idx) => {
                let o = self.eval(obj, scopes)?;
                let i = self.eval(idx, scopes)?;
                match (&o, &i) {
                    (Value::Array(a), Value::Number(n)) => Ok(a
                        .borrow()
                        .get(*n as usize)
                        .cloned()
                        .unwrap_or(Value::Undefined)),
                    (Value::Object(m), _) => Ok(m
                        .borrow()
                        .get(&i.to_js_string())
                        .cloned()
                        .unwrap_or(Value::Undefined)),
                    _ => err("cannot index this value"),
                }
            }
            JsExpr::Call(callee, args) => self.eval_call(callee, args, scopes),
            JsExpr::Assign(target, value) => {
                let v = self.eval(value, scopes)?;
                self.assign(target, v.clone(), scopes)?;
                Ok(v)
            }
            JsExpr::AddAssign(target, value) => {
                let old = self.eval(target, scopes)?;
                let add = self.eval(value, scopes)?;
                let v = js_add(&old, &add);
                self.assign(target, v.clone(), scopes)?;
                Ok(v)
            }
        }
    }

    fn assign(
        &mut self,
        target: &JsExpr,
        value: Value,
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<(), JsError> {
        match target {
            JsExpr::Ident(name) => {
                self.assign_ident(name, value, scopes);
                Ok(())
            }
            JsExpr::Member(obj, name) => {
                let o = self.eval(obj, scopes)?;
                self.set_member(&o, name, value)
            }
            JsExpr::Index(obj, idx) => {
                let o = self.eval(obj, scopes)?;
                let i = self.eval(idx, scopes)?;
                match (&o, &i) {
                    (Value::Array(a), Value::Number(n)) => {
                        let mut a = a.borrow_mut();
                        let idx = *n as usize;
                        if idx >= a.len() {
                            a.resize(idx + 1, Value::Undefined);
                        }
                        a[idx] = value;
                        Ok(())
                    }
                    (Value::Object(m), _) => {
                        m.borrow_mut().insert(i.to_js_string(), value);
                        Ok(())
                    }
                    _ => err("cannot index-assign this value"),
                }
            }
            _ => err("invalid assignment target"),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        l: &JsExpr,
        r: &JsExpr,
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Value, JsError> {
        // short-circuit
        if op == BinOp::And {
            let lv = self.eval(l, scopes)?;
            return if lv.truthy() {
                self.eval(r, scopes)
            } else {
                Ok(lv)
            };
        }
        if op == BinOp::Or {
            let lv = self.eval(l, scopes)?;
            return if lv.truthy() {
                Ok(lv)
            } else {
                self.eval(r, scopes)
            };
        }
        let lv = self.eval(l, scopes)?;
        let rv = self.eval(r, scopes)?;
        Ok(match op {
            BinOp::Add => js_add(&lv, &rv),
            BinOp::Sub => Value::Number(lv.to_number() - rv.to_number()),
            BinOp::Mul => Value::Number(lv.to_number() * rv.to_number()),
            BinOp::Div => Value::Number(lv.to_number() / rv.to_number()),
            BinOp::Mod => Value::Number(lv.to_number() % rv.to_number()),
            BinOp::Eq => Value::Bool(js_eq(&lv, &rv)),
            BinOp::NotEq => Value::Bool(!js_eq(&lv, &rv)),
            BinOp::Lt => js_cmp(&lv, &rv, |o| o == std::cmp::Ordering::Less),
            BinOp::LtEq => js_cmp(&lv, &rv, |o| o != std::cmp::Ordering::Greater),
            BinOp::Gt => js_cmp(&lv, &rv, |o| o == std::cmp::Ordering::Greater),
            BinOp::GtEq => js_cmp(&lv, &rv, |o| o != std::cmp::Ordering::Less),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        })
    }

    // ----- member access ------------------------------------------------------

    fn get_member(&mut self, obj: &Value, name: &str) -> Result<Value, JsError> {
        match obj {
            Value::Host(HostObject::Document) => match name {
                "body" => Ok(self
                    .find_first_named("body")
                    .map(Value::Node)
                    .unwrap_or(Value::Null)),
                "documentElement" => {
                    let store = self.store.borrow();
                    let doc = store.doc(self.doc);
                    Ok(doc
                        .children(doc.root())
                        .first()
                        .map(|&n| Value::Node(NodeRef::new(self.doc, n)))
                        .unwrap_or(Value::Null))
                }
                _ => Ok(Value::Undefined),
            },
            Value::Host(HostObject::Window) => match name {
                "status" => Ok(Value::Str(self.window_status.clone())),
                _ => Ok(Value::Undefined),
            },
            Value::Host(HostObject::Navigator) => match name {
                "appName" => Ok(Value::Str(self.navigator_app_name.clone())),
                _ => Ok(Value::Undefined),
            },
            Value::Host(HostObject::Screen) => match name {
                "height" => Ok(Value::Number(self.screen_height)),
                "width" => Ok(Value::Number(self.screen_width)),
                _ => Ok(Value::Undefined),
            },
            Value::Node(n) => match name {
                "firstChild" => {
                    let store = self.store.borrow();
                    Ok(store
                        .doc(n.doc)
                        .children(n.node)
                        .first()
                        .map(|&c| Value::Node(NodeRef::new(n.doc, c)))
                        .unwrap_or(Value::Null))
                }
                "parentNode" => {
                    let store = self.store.borrow();
                    Ok(store
                        .doc(n.doc)
                        .parent(n.node)
                        .map(|p| Value::Node(NodeRef::new(n.doc, p)))
                        .unwrap_or(Value::Null))
                }
                "textContent" => {
                    let store = self.store.borrow();
                    Ok(Value::Str(store.string_value(*n)))
                }
                "tagName" | "nodeName" => {
                    let store = self.store.borrow();
                    Ok(store
                        .doc(n.doc)
                        .node_name(n.node)
                        .map(|q| Value::Str(q.lexical()))
                        .unwrap_or(Value::Null))
                }
                _ => Ok(Value::Undefined),
            },
            Value::Snapshot(s) => match name {
                "snapshotLength" => Ok(Value::Number(s.len() as f64)),
                _ => Ok(Value::Undefined),
            },
            Value::Array(a) => match name {
                "length" => Ok(Value::Number(a.borrow().len() as f64)),
                _ => Ok(Value::Undefined),
            },
            Value::Str(s) => match name {
                "length" => Ok(Value::Number(s.chars().count() as f64)),
                _ => Ok(Value::Undefined),
            },
            Value::Object(m) => Ok(m.borrow().get(name).cloned().unwrap_or(Value::Undefined)),
            _ => Ok(Value::Undefined),
        }
    }

    fn set_member(&mut self, obj: &Value, name: &str, value: Value) -> Result<(), JsError> {
        match obj {
            Value::Host(HostObject::Window) => {
                if name == "status" {
                    self.window_status = value.to_js_string();
                }
                Ok(())
            }
            Value::Object(m) => {
                m.borrow_mut().insert(name.to_string(), value);
                Ok(())
            }
            Value::Node(n) => {
                if name == "textContent" {
                    let mut store = self.store.borrow_mut();
                    store
                        .doc_mut(n.doc)
                        .replace_element_value(n.node, &value.to_js_string())
                        .map_err(|e| JsError(e.to_string()))?;
                }
                Ok(())
            }
            _ => err(format!("cannot set `{name}` on this value")),
        }
    }

    // ----- calls -----------------------------------------------------------------

    fn eval_call(
        &mut self,
        callee: &JsExpr,
        args: &[JsExpr],
        scopes: &mut Vec<HashMap<String, Value>>,
    ) -> Result<Value, JsError> {
        let mut argv = Vec::with_capacity(args.len());
        for a in args {
            argv.push(self.eval(a, scopes)?);
        }
        match callee {
            JsExpr::Ident(name) => match name.as_str() {
                "alert" => {
                    let msg = argv.first().map(|v| v.to_js_string()).unwrap_or_default();
                    self.alerts.push(msg);
                    Ok(Value::Undefined)
                }
                "parseInt" => Ok(Value::Number(
                    argv.first()
                        .map(|v| v.to_js_string().trim().parse().unwrap_or(f64::NAN))
                        .unwrap_or(f64::NAN)
                        .trunc(),
                )),
                "String" => Ok(Value::Str(
                    argv.first().map(|v| v.to_js_string()).unwrap_or_default(),
                )),
                "Number" => Ok(Value::Number(
                    argv.first().map(|v| v.to_number()).unwrap_or(f64::NAN),
                )),
                _ => {
                    let f = self
                        .lookup(name, scopes)
                        .ok_or_else(|| JsError(format!("`{name}` is not defined")))?;
                    self.call_value(&f, argv)
                }
            },
            JsExpr::Member(obj, method) => {
                let o = self.eval(obj, scopes)?;
                self.call_method(&o, method, argv)
            }
            other => {
                let f = self.eval(other, scopes)?;
                self.call_value(&f, argv)
            }
        }
    }

    fn call_method(
        &mut self,
        obj: &Value,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, JsError> {
        match obj {
            Value::Host(HostObject::Document) => self.document_method(method, args),
            Value::Host(HostObject::Window) => match method {
                "alert" => {
                    self.alerts
                        .push(args.first().map(|v| v.to_js_string()).unwrap_or_default());
                    Ok(Value::Undefined)
                }
                _ => err(format!("window.{method} is not supported")),
            },
            Value::Node(n) => self.node_method(*n, method, args),
            Value::Snapshot(s) => match method {
                "snapshotItem" => {
                    let i = args.first().map(|v| v.to_number()).unwrap_or(f64::NAN);
                    Ok(s.get(i as usize)
                        .map(|&n| Value::Node(n))
                        .unwrap_or(Value::Null))
                }
                _ => err(format!("XPathResult.{method} is not supported")),
            },
            Value::Array(a) => match method {
                "push" => {
                    let mut arr = a.borrow_mut();
                    for v in args {
                        arr.push(v);
                    }
                    Ok(Value::Number(arr.len() as f64))
                }
                _ => err(format!("Array.{method} is not supported")),
            },
            Value::Str(s) => match method {
                "indexOf" => {
                    let needle = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                    Ok(Value::Number(match s.find(&needle) {
                        Some(i) => s[..i].chars().count() as f64,
                        None => -1.0,
                    }))
                }
                "substring" => {
                    let chars: Vec<char> = s.chars().collect();
                    let a = args.first().map(|v| v.to_number()).unwrap_or(0.0) as usize;
                    let b = args
                        .get(1)
                        .map(|v| v.to_number() as usize)
                        .unwrap_or(chars.len());
                    Ok(Value::Str(
                        chars[a.min(chars.len())..b.min(chars.len())]
                            .iter()
                            .collect(),
                    ))
                }
                "toUpperCase" => Ok(Value::Str(s.to_uppercase())),
                "toLowerCase" => Ok(Value::Str(s.to_lowercase())),
                _ => err(format!("String.{method} is not supported")),
            },
            Value::Object(m) => {
                let f = m.borrow().get(method).cloned();
                match f {
                    Some(f) => self.call_value(&f, args),
                    None => err(format!("object has no method `{method}`")),
                }
            }
            _ => err(format!("cannot call `{method}` on this value")),
        }
    }

    fn document_method(&mut self, method: &str, args: Vec<Value>) -> Result<Value, JsError> {
        match method {
            "createElement" => {
                let tag = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let mut store = self.store.borrow_mut();
                let e = store.doc_mut(self.doc).create_element(QName::local(&tag));
                Ok(Value::Node(NodeRef::new(self.doc, e)))
            }
            "createTextNode" => {
                let text = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let mut store = self.store.borrow_mut();
                let t = store.doc_mut(self.doc).create_text(text);
                Ok(Value::Node(NodeRef::new(self.doc, t)))
            }
            "getElementById" => {
                let id = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let store = self.store.borrow();
                let doc = store.doc(self.doc);
                Ok(doc
                    .descendants_or_self(doc.root())
                    .into_iter()
                    .find(|&n| doc.get_attribute(n, None, "id") == Some(id.as_str()))
                    .map(|n| Value::Node(NodeRef::new(self.doc, n)))
                    .unwrap_or(Value::Null))
            }
            // document.evaluate(xpath, context, resolver, resultType, result)
            "evaluate" => {
                let xpath = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let nodes = self.evaluate_xpath(&xpath)?;
                Ok(Value::Snapshot(Rc::new(nodes)))
            }
            _ => err(format!("document.{method} is not supported")),
        }
    }

    /// §2.2: embedded XPath — "all XPath expressions can be executed by an
    /// XQuery processor", so we hand the string to the XQuery engine.
    fn evaluate_xpath(&mut self, xpath: &str) -> Result<Vec<NodeRef>, JsError> {
        // one static environment (no modules, no browser profile), so the
        // text alone keys the plan
        let plan = self
            .xpath_plans
            .get_or_compile(xpath, 0, || {
                compile_plan(xpath, &ModuleRegistry::new(), false)
            })
            .map_err(|e| JsError(e.to_string()))?;
        let store = &self.store;
        let construction = *self
            .construction_doc
            .get_or_insert_with(|| store.borrow_mut().new_document(None));
        let mut ctx = DynamicContext::constructing_into(
            self.store.clone(),
            plan.static_context().clone(),
            construction,
        );
        let root = self.store.borrow().root(self.doc);
        ctx.focus = Some(xqib_xquery::context::Focus {
            item: xqib_xdm::Item::Node(root),
            position: 1,
            size: 1,
        });
        let result = plan.execute(&mut ctx).map_err(|e| JsError(e.to_string()))?;
        Ok(result.into_iter().filter_map(|i| i.as_node()).collect())
    }

    fn node_method(
        &mut self,
        n: NodeRef,
        method: &str,
        args: Vec<Value>,
    ) -> Result<Value, JsError> {
        match method {
            "appendChild" => {
                let child = node_arg(&args, 0)?;
                let mut store = self.store.borrow_mut();
                store
                    .doc_mut(n.doc)
                    .append_child(n.node, child.node)
                    .map_err(|e| JsError(e.to_string()))?;
                Ok(Value::Node(child))
            }
            "insertBefore" => {
                let new = node_arg(&args, 0)?;
                let mut store = self.store.borrow_mut();
                match args.get(1) {
                    Some(Value::Node(anchor)) => {
                        store
                            .doc_mut(n.doc)
                            .insert_before(new.node, anchor.node)
                            .map_err(|e| JsError(e.to_string()))?;
                    }
                    _ => {
                        // null anchor appends, per the DOM spec
                        store
                            .doc_mut(n.doc)
                            .append_child(n.node, new.node)
                            .map_err(|e| JsError(e.to_string()))?;
                    }
                }
                Ok(Value::Node(new))
            }
            "removeChild" => {
                let child = node_arg(&args, 0)?;
                let mut store = self.store.borrow_mut();
                store
                    .doc_mut(n.doc)
                    .detach(child.node)
                    .map_err(|e| JsError(e.to_string()))?;
                Ok(Value::Node(child))
            }
            "setAttribute" => {
                let name = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let value = args.get(1).map(|v| v.to_js_string()).unwrap_or_default();
                let mut store = self.store.borrow_mut();
                store
                    .doc_mut(n.doc)
                    .set_attribute(n.node, QName::local(&name), value)
                    .map_err(|e| JsError(e.to_string()))?;
                Ok(Value::Undefined)
            }
            "getAttribute" => {
                let name = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let store = self.store.borrow();
                Ok(store
                    .doc(n.doc)
                    .get_attribute(n.node, None, &name)
                    .map(|v| Value::Str(v.to_string()))
                    .unwrap_or(Value::Null))
            }
            "addEventListener" => {
                let event_type = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let f = args.get(1).cloned().unwrap_or(Value::Undefined);
                if !matches!(f, Value::Function(_)) {
                    return err("addEventListener requires a function");
                }
                self.pending_registrations.push((n, event_type, f));
                Ok(Value::Undefined)
            }
            "removeEventListener" => {
                let event_type = args.first().map(|v| v.to_js_string()).unwrap_or_default();
                let f = args.get(1).cloned().unwrap_or(Value::Undefined);
                self.pending_removals.push((n, event_type, f));
                Ok(Value::Undefined)
            }
            _ => err(format!("node.{method} is not supported")),
        }
    }

    fn find_first_named(&self, local: &str) -> Option<NodeRef> {
        let store = self.store.borrow();
        let doc = store.doc(self.doc);
        doc.descendants_or_self(doc.root())
            .into_iter()
            .find(|&n| {
                doc.element_name(n)
                    .map(|q| &*q.local == local)
                    .unwrap_or(false)
            })
            .map(|n| NodeRef::new(self.doc, n))
    }
}

fn node_arg(args: &[Value], i: usize) -> Result<NodeRef, JsError> {
    match args.get(i) {
        Some(Value::Node(n)) => Ok(*n),
        _ => err("expected a DOM node argument"),
    }
}

fn js_add(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Str(_), _) | (_, Value::Str(_)) => {
            Value::Str(format!("{}{}", a.to_js_string(), b.to_js_string()))
        }
        _ => Value::Number(a.to_number() + b.to_number()),
    }
}

fn js_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Null | Value::Undefined, Value::Null | Value::Undefined) => true,
        (Value::Node(x), Value::Node(y)) => x == y,
        (Value::Number(_), Value::Str(_)) | (Value::Str(_), Value::Number(_)) => {
            a.to_number() == b.to_number()
        }
        _ => false,
    }
}

fn js_cmp(a: &Value, b: &Value, test: impl Fn(std::cmp::Ordering) -> bool) -> Value {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Value::Bool(test(x.cmp(y))),
        _ => match a.to_number().partial_cmp(&b.to_number()) {
            Some(o) => Value::Bool(test(o)),
            None => Value::Bool(false),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqib_dom::store::shared_store;

    fn engine_with(html: &str) -> JsEngine {
        let store = shared_store();
        let doc = xqib_dom::parse_document(html).unwrap();
        let id = store.borrow_mut().add_document(doc, None);
        JsEngine::new(store, id)
    }

    fn page(engine: &JsEngine) -> String {
        let store = engine.store.borrow();
        xqib_dom::serialize::serialize_document(store.doc(engine.doc))
    }

    #[test]
    fn arithmetic_and_strings() {
        let mut e = engine_with("<html/>");
        e.run("var x = 1 + 2 * 3; alert('' + x); alert('a' + 1);")
            .unwrap();
        assert_eq!(e.alerts, vec!["7", "a1"]);
    }

    #[test]
    fn functions_and_recursion() {
        let mut e = engine_with("<html/>");
        e.run(
            "function fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             alert('' + fact(6));",
        )
        .unwrap();
        assert_eq!(e.alerts, vec!["720"]);
    }

    #[test]
    fn while_and_for_loops() {
        let mut e = engine_with("<html/>");
        e.run(
            "var s = 0; var i = 1;
             while (i <= 4) { s = s + i; i = i + 1; }
             for (var j = 0; j < 3; j = j + 1) { s += 10; }
             alert('' + s);",
        )
        .unwrap();
        assert_eq!(e.alerts, vec!["40"]);
    }

    #[test]
    fn arrays() {
        let mut e = engine_with("<html/>");
        e.run("var a = [1, 2]; a.push(3); a[0] = 9; alert('' + a.length + ':' + a[0] + a[2]);")
            .unwrap();
        assert_eq!(e.alerts, vec!["3:93"]);
    }

    #[test]
    fn dom_create_and_append() {
        let mut e = engine_with("<html><body/></html>");
        e.run(
            "var p = document.createElement('p');
             p.setAttribute('id', 'x');
             var t = document.createTextNode('hi');
             p.appendChild(t);
             document.body.appendChild(p);",
        )
        .unwrap();
        assert!(page(&e).contains("<p id=\"x\">hi</p>"));
    }

    #[test]
    fn get_element_by_id_and_attributes() {
        let mut e = engine_with(r#"<html><body><div id="d" class="c"/></body></html>"#);
        e.run(
            "var d = document.getElementById('d');
             alert(d.getAttribute('class'));
             alert('' + (document.getElementById('nope') == null));",
        )
        .unwrap();
        assert_eq!(e.alerts, vec!["c", "true"]);
    }

    #[test]
    fn xpath_plans_stay_bounded() {
        let mut e = engine_with("<html><body><div id=\"d7\"/></body></html>");
        e.run(
            "var hits = 0;
             for (var i = 0; i < 10000; i = i + 1) {
                 var r = document.evaluate(\"//div[@id='d\" + i + \"']\", document, null, 7, null);
                 hits = hits + r.snapshotLength;
             }
             alert('' + hits);",
        )
        .unwrap();
        assert_eq!(e.alerts, vec!["1"]);
        assert!(e.xpath_plans.len() <= e.xpath_plans.capacity());
        assert_eq!(e.xpath_plans.capacity(), XPATH_PLAN_CAPACITY);
    }

    #[test]
    fn evaluate_constructs_into_one_document() {
        let mut e = engine_with("<html><body><div id=\"d\"/></body></html>");
        e.run("var r = document.evaluate(\"//div\", document, null, 7, null);")
            .unwrap();
        let docs = e.store.borrow().doc_count();
        e.run(
            "for (var i = 0; i < 1000; i = i + 1) {
                 var r = document.evaluate(\"//div\", document, null, 7, null);
             }",
        )
        .unwrap();
        assert_eq!(e.store.borrow().doc_count(), docs);
    }

    #[test]
    fn embedded_xpath_snapshot() {
        // §2.2's document.evaluate example shape
        let mut e =
            engine_with(r#"<html><body><div>I love XQuery</div><div>meh</div></body></html>"#);
        e.run(
            "var allDivs = document.evaluate(\"//div[contains(., 'love')]\", document, null, 7, null);
             if (allDivs.snapshotLength > 0) {
                var newElement = document.createElement('img');
                newElement.setAttribute('src', 'http://x/heart.gif');
                document.body.insertBefore(newElement, document.body.firstChild);
             }",
        )
        .unwrap();
        let p = page(&e);
        assert!(
            p.starts_with("<html><body><img src=\"http://x/heart.gif\"/>"),
            "{p}"
        );
    }

    #[test]
    fn listener_registration_and_dispatch() {
        let mut e = engine_with(r#"<html><body><input id="b"/></body></html>"#);
        e.run(
            "var hits = 0;
             function onClick(ev) { hits = hits + 1; alert(ev.type + '@' + ev.target.getAttribute('id')); }
             document.getElementById('b').addEventListener('onclick', onClick, false);",
        )
        .unwrap();
        let regs = e.take_registrations();
        assert_eq!(regs.len(), 1);
        let (target, ty, f) = &regs[0];
        assert_eq!(ty, "onclick");
        e.dispatch_to(f, "onclick", *target, 1).unwrap();
        assert_eq!(e.alerts, vec!["onclick@b"]);
    }

    #[test]
    fn window_status_and_navigator() {
        let mut e = engine_with("<html/>");
        e.run(
            "self.status = 'Welcome';
             alert(navigator.appName);
             alert('' + screen.height);",
        )
        .unwrap();
        assert_eq!(e.window_status, "Welcome");
        assert_eq!(e.alerts, vec!["Microsoft Internet Explorer", "1024"]);
    }

    #[test]
    fn string_methods() {
        let mut e = engine_with("<html/>");
        e.run(
            "var s = 'Hello World';
             alert('' + s.indexOf('World'));
             alert(s.substring(0, 5).toUpperCase());",
        )
        .unwrap();
        assert_eq!(e.alerts, vec!["6", "HELLO"]);
    }

    #[test]
    fn undefined_variable_is_error() {
        let mut e = engine_with("<html/>");
        assert!(e.run("alert(nosuch);").is_err());
    }

    #[test]
    fn shopping_cart_js_listing_runs() {
        // the §6.3 JS listing (client side)
        let mut e = engine_with(
            r#"<html><body><div>Shopping cart</div><div id="shoppingcart"/>
            <div>Laptop<input type="button" value="Buy" id="Laptop"/></div></body></html>"#,
        );
        e.run(xqib_core_free_sample()).unwrap();
        // simulate the click: grab the buy function and dispatch
        let buy = e.global("buy").cloned().unwrap();
        let button = {
            let store = e.store.borrow();
            let doc = store.doc(e.doc);
            let n = doc
                .descendants_or_self(doc.root())
                .into_iter()
                .find(|&n| doc.get_attribute(n, None, "id") == Some("Laptop"))
                .unwrap();
            NodeRef::new(e.doc, n)
        };
        e.dispatch_to(&buy, "onclick", button, 1).unwrap();
        assert!(page(&e).contains("<div id=\"shoppingcart\"><p>Laptop</p></div>"));
    }

    /// local copy of the §6.3 JS listing to avoid a dev-dependency cycle
    fn xqib_core_free_sample() -> &'static str {
        r#"function buy(e) {
          var newElement = document.createElement("p");
          var elementText = document.createTextNode(e.target.getAttribute("id"));
          newElement.appendChild(elementText);
          var res = document.evaluate("//div[@id='shoppingcart']", document, null, 7, null);
          res.snapshotItem(0).insertBefore(newElement, res.snapshotItem(0).firstChild);
        }"#
    }
}
