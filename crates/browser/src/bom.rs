//! The Browser Object Model: window tree, locations, history, navigator,
//! screen, and the UI primitives (`alert`/`confirm`/`prompt`) — everything
//! §4.2 of the paper materialises as XML window nodes.

use xqib_dom::DocId;

use crate::security::Origin;

/// Identifier of a window (or frame) in the browser's window tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WindowId(pub u32);

/// A parsed location, mirroring the JavaScript `location` object's
/// properties (`href`, `protocol`, `host`, `port`, `pathname`, `search`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    pub href: String,
}

impl Location {
    pub fn new(href: &str) -> Self {
        Location {
            href: href.to_string(),
        }
    }

    pub fn origin(&self) -> Origin {
        Origin::from_url(&self.href)
    }

    pub fn protocol(&self) -> String {
        match self.href.split_once("://") {
            Some((s, _)) => format!("{s}:"),
            None => String::new(),
        }
    }

    pub fn host(&self) -> String {
        self.origin().host
    }

    pub fn port(&self) -> u16 {
        self.origin().port
    }

    pub fn pathname(&self) -> String {
        match self.href.split_once("://") {
            Some((_, rest)) => match rest.find('/') {
                Some(i) => rest[i..]
                    .split(['?', '#'])
                    .next()
                    .unwrap_or("/")
                    .to_string(),
                None => "/".to_string(),
            },
            None => self.href.clone(),
        }
    }

    pub fn search(&self) -> String {
        match self.href.find('?') {
            Some(i) => self.href[i..].split('#').next().unwrap_or("").to_string(),
            None => String::new(),
        }
    }
}

/// The `navigator` object (§4.2.2). Defaults identify the simulated host
/// browser — Internet Explorer, as in the paper's plug-in.
#[derive(Debug, Clone)]
pub struct Navigator {
    pub app_name: String,
    pub app_version: String,
    pub user_agent: String,
    pub platform: String,
    pub language: String,
}

impl Default for Navigator {
    fn default() -> Self {
        Navigator {
            app_name: "Microsoft Internet Explorer".to_string(),
            app_version: "7.0".to_string(),
            user_agent: "Mozilla/4.0 (compatible; MSIE 7.0; XQIB/1.0)".to_string(),
            platform: "Win32".to_string(),
            language: "en".to_string(),
        }
    }
}

/// The `screen` object (§4.2.2).
#[derive(Debug, Clone)]
pub struct Screen {
    pub width: u32,
    pub height: u32,
    pub avail_width: u32,
    pub avail_height: u32,
    pub color_depth: u32,
}

impl Default for Screen {
    fn default() -> Self {
        Screen {
            width: 1280,
            height: 1024,
            avail_width: 1280,
            avail_height: 994,
            color_depth: 32,
        }
    }
}

/// Session history of one window.
#[derive(Debug, Clone, Default)]
pub struct History {
    entries: Vec<String>,
    pos: usize,
}

impl History {
    pub fn len(&self) -> usize {
        self.entries.len()
    }
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
    pub fn current(&self) -> Option<&str> {
        self.entries.get(self.pos).map(|s| s.as_str())
    }
    fn push(&mut self, url: String) {
        if !self.entries.is_empty() {
            self.entries.truncate(self.pos + 1);
        }
        self.entries.push(url);
        self.pos = self.entries.len() - 1;
    }
    fn go(&mut self, delta: i64) -> Option<&str> {
        let target = self.pos as i64 + delta;
        if target < 0 || target as usize >= self.entries.len() {
            return None;
        }
        self.pos = target as usize;
        self.current()
    }
}

/// Geometry of a top-level window (moveBy/moveTo/resize targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowGeometry {
    pub x: i32,
    pub y: i32,
    pub width: u32,
    pub height: u32,
}

impl Default for WindowGeometry {
    fn default() -> Self {
        WindowGeometry {
            x: 0,
            y: 0,
            width: 1024,
            height: 768,
        }
    }
}

/// One window or frame.
#[derive(Debug, Clone)]
pub struct WindowData {
    pub name: String,
    pub status: String,
    pub location: Location,
    pub parent: Option<WindowId>,
    pub frames: Vec<WindowId>,
    /// The DOM document shown in this window (absent until loaded).
    pub document: Option<DocId>,
    pub history: History,
    pub geometry: WindowGeometry,
    pub closed: bool,
    /// `document.lastModified` (§4.2.1's `$win/lastModified` example).
    pub last_modified: String,
}

/// A recorded UI interaction (alert/confirm/prompt/status), so tests and
/// experiments can assert what the user would have seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UiEvent {
    Alert(String),
    Confirm(String),
    Prompt(String),
    WriteLn(String),
}

/// The browser: window tree + shared navigator/screen + UI log.
#[derive(Debug)]
pub struct Browser {
    windows: Vec<WindowData>,
    top: WindowId,
    pub navigator: Navigator,
    pub screen: Screen,
    pub ui_log: Vec<UiEvent>,
    /// Scripted answers for `confirm` (true/false) and `prompt` (strings).
    pub confirm_answers: Vec<bool>,
    pub prompt_answers: Vec<String>,
}

impl Browser {
    /// Creates a browser with a single top window at `url`.
    pub fn new(name: &str, url: &str) -> Self {
        let mut history = History::default();
        history.push(url.to_string());
        let win = WindowData {
            name: name.to_string(),
            status: String::new(),
            location: Location::new(url),
            parent: None,
            frames: Vec::new(),
            document: None,
            history,
            geometry: WindowGeometry::default(),
            closed: false,
            last_modified: "2009-04-20T08:00:00".to_string(),
        };
        Browser {
            windows: vec![win],
            top: WindowId(0),
            navigator: Navigator::default(),
            screen: Screen::default(),
            ui_log: Vec::new(),
            confirm_answers: Vec::new(),
            prompt_answers: Vec::new(),
        }
    }

    pub fn top(&self) -> WindowId {
        self.top
    }

    pub fn window(&self, id: WindowId) -> &WindowData {
        &self.windows[id.0 as usize]
    }

    pub fn window_mut(&mut self, id: WindowId) -> &mut WindowData {
        &mut self.windows[id.0 as usize]
    }

    /// All windows in creation order (including closed ones).
    pub fn window_ids(&self) -> impl Iterator<Item = WindowId> + '_ {
        (0..self.windows.len() as u32).map(WindowId)
    }

    /// Creates a child frame of `parent`.
    pub fn create_frame(&mut self, parent: WindowId, name: &str, url: &str) -> WindowId {
        let id = WindowId(self.windows.len() as u32);
        let mut history = History::default();
        history.push(url.to_string());
        self.windows.push(WindowData {
            name: name.to_string(),
            status: String::new(),
            location: Location::new(url),
            parent: Some(parent),
            frames: Vec::new(),
            document: None,
            history,
            geometry: WindowGeometry::default(),
            closed: false,
            last_modified: "2009-04-20T08:00:00".to_string(),
        });
        self.window_mut(parent).frames.push(id);
        id
    }

    /// `window.open` (§4.2.4): a fresh top-level window.
    pub fn window_open(&mut self, name: &str, url: &str) -> WindowId {
        let id = WindowId(self.windows.len() as u32);
        let mut history = History::default();
        history.push(url.to_string());
        self.windows.push(WindowData {
            name: name.to_string(),
            status: String::new(),
            location: Location::new(url),
            parent: None,
            frames: Vec::new(),
            document: None,
            history,
            geometry: WindowGeometry::default(),
            closed: false,
            last_modified: "2009-04-20T08:00:00".to_string(),
        });
        id
    }

    /// `window.close`.
    pub fn window_close(&mut self, id: WindowId) {
        self.window_mut(id).closed = true;
    }

    /// Navigates a window: replaces the location, pushes history, clears the
    /// document (a loader will attach the new one).
    pub fn navigate(&mut self, id: WindowId, url: &str) {
        let w = self.window_mut(id);
        w.location = Location::new(url);
        w.history.push(url.to_string());
        w.document = None;
    }

    /// `history.back()` / `forward()` / `go(n)`. Returns the URL navigated
    /// to, if any.
    pub fn history_go(&mut self, id: WindowId, delta: i64) -> Option<String> {
        let w = self.window_mut(id);
        let url = w.history.go(delta)?.to_string();
        w.location = Location::new(&url);
        w.document = None;
        Some(url)
    }

    /// Attaches a loaded document to a window.
    pub fn set_document(&mut self, id: WindowId, doc: DocId) {
        self.window_mut(id).document = Some(doc);
    }

    /// Origin of the code running in a window.
    pub fn origin_of(&self, id: WindowId) -> Origin {
        self.window(id).location.origin()
    }

    /// Finds a window anywhere in the tree by name (the
    /// `browser:top()//window[@name="myframe"]` pattern).
    pub fn find_by_name(&self, name: &str) -> Option<WindowId> {
        self.window_ids().find(|&id| self.window(id).name == name)
    }

    /// Depth-first list of `root` and all its descendant frames.
    pub fn subtree(&self, root: WindowId) -> Vec<WindowId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            out.push(id);
            for &f in self.window(id).frames.iter().rev() {
                stack.push(f);
            }
        }
        out
    }

    // ----- UI primitives ------------------------------------------------------

    pub fn alert(&mut self, message: &str) {
        self.ui_log.push(UiEvent::Alert(message.to_string()));
    }

    pub fn confirm(&mut self, message: &str) -> bool {
        self.ui_log.push(UiEvent::Confirm(message.to_string()));
        if self.confirm_answers.is_empty() {
            true
        } else {
            self.confirm_answers.remove(0)
        }
    }

    pub fn prompt(&mut self, message: &str) -> String {
        self.ui_log.push(UiEvent::Prompt(message.to_string()));
        if self.prompt_answers.is_empty() {
            String::new()
        } else {
            self.prompt_answers.remove(0)
        }
    }

    pub fn writeln(&mut self, text: &str) {
        self.ui_log.push(UiEvent::WriteLn(text.to_string()));
    }

    /// All alert messages recorded so far (most assertions use this).
    pub fn alerts(&self) -> Vec<&str> {
        self.ui_log
            .iter()
            .filter_map(|e| match e {
                UiEvent::Alert(m) => Some(m.as_str()),
                _ => None,
            })
            .collect()
    }

    pub fn window_move_to(&mut self, id: WindowId, x: i32, y: i32) {
        let g = &mut self.window_mut(id).geometry;
        g.x = x;
        g.y = y;
    }

    pub fn window_move_by(&mut self, id: WindowId, dx: i32, dy: i32) {
        let g = &mut self.window_mut(id).geometry;
        g.x += dx;
        g.y += dy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn browser() -> Browser {
        Browser::new("top_window", "http://www.dbis.ethz.ch/index.html")
    }

    #[test]
    fn location_components() {
        let l = Location::new("http://example.com:8080/a/b?q=1#frag");
        assert_eq!(l.protocol(), "http:");
        assert_eq!(l.host(), "example.com");
        assert_eq!(l.port(), 8080);
        assert_eq!(l.pathname(), "/a/b");
        assert_eq!(l.search(), "?q=1");
        let bare = Location::new("http://example.com");
        assert_eq!(bare.pathname(), "/");
    }

    #[test]
    fn frame_tree() {
        let mut b = browser();
        let top = b.top();
        let left = b.create_frame(top, "leftframe", "http://www.dbis.ethz.ch/left");
        let right = b.create_frame(top, "rightframe", "http://www.dbis.ethz.ch/right");
        let nested = b.create_frame(left, "inner", "http://www.dbis.ethz.ch/inner");
        assert_eq!(b.window(top).frames, vec![left, right]);
        assert_eq!(b.subtree(top), vec![top, left, nested, right]);
        assert_eq!(b.find_by_name("inner"), Some(nested));
        assert_eq!(b.find_by_name("nosuch"), None);
        assert_eq!(b.window(nested).parent, Some(left));
    }

    #[test]
    fn navigation_and_history() {
        let mut b = browser();
        let top = b.top();
        b.navigate(top, "http://www.dbis.ethz.ch/page2");
        b.navigate(top, "http://other.org/x");
        assert_eq!(b.window(top).location.href, "http://other.org/x");
        assert_eq!(b.window(top).history.len(), 3);
        let back = b.history_go(top, -1).unwrap();
        assert_eq!(back, "http://www.dbis.ethz.ch/page2");
        assert!(b.history_go(top, -5).is_none());
        let fwd = b.history_go(top, 1).unwrap();
        assert_eq!(fwd, "http://other.org/x");
        // navigating after going back truncates forward history
        b.history_go(top, -1).unwrap();
        b.navigate(top, "http://branch.example/");
        assert!(b.history_go(top, 1).is_none());
    }

    #[test]
    fn origin_changes_with_navigation() {
        let mut b = browser();
        let top = b.top();
        let o1 = b.origin_of(top);
        b.navigate(top, "http://evil.example/");
        let o2 = b.origin_of(top);
        assert!(!o1.same_origin(&o2));
    }

    #[test]
    fn ui_primitives_record_and_answer() {
        let mut b = browser();
        b.alert("Hello, World!");
        b.confirm_answers.push(false);
        assert!(!b.confirm("sure?"));
        assert!(b.confirm("default answer"), "defaults to true");
        b.prompt_answers.push("Bob".to_string());
        assert_eq!(b.prompt("name?"), "Bob");
        assert_eq!(b.alerts(), vec!["Hello, World!"]);
        assert_eq!(b.ui_log.len(), 4);
    }

    #[test]
    fn window_open_close_and_geometry() {
        let mut b = browser();
        let w = b.window_open("popup", "http://www.dbis.ethz.ch/pop");
        assert!(!b.window(w).closed);
        b.window_move_to(w, 10, 20);
        b.window_move_by(w, 5, -5);
        assert_eq!(b.window(w).geometry.x, 15);
        assert_eq!(b.window(w).geometry.y, 15);
        b.window_close(w);
        assert!(b.window(w).closed);
    }
}
