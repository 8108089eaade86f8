//! Minimal deterministic JSON assembly.
//!
//! Every machine-readable artifact in the workspace — the benchmark reports
//! (`fiveg-tick/v4`, `fiveg-fleet/v7`, `fiveg-serve/v2`, `fiveg-fuzz/v1`,
//! `fiveg-vivisect/v1`) and the flight-recorder dumps (`fiveg-flightrec/v1`)
//! — is diffed byte-for-byte by the determinism CI, so serialization must
//! not depend on any serializer's formatting choices. [`JsonBuf`] is the
//! shared std-only writer they all use. It lives in the telemetry crate
//! (the workspace's dependency-free observability root) so producers above
//! and below the bench layer can emit identical bytes.

/// Minimal JSON assembly buffer: keys are emitted in call order, floats
/// use Rust's shortest round-trip formatting, non-finite floats become
/// `null`. Deliberately std-only so report bytes are reproducible and
/// independent of any serializer's formatting choices.
#[derive(Default)]
pub struct JsonBuf {
    out: String,
    comma: Vec<bool>,
}

impl JsonBuf {
    /// An empty buffer.
    pub fn new() -> JsonBuf {
        JsonBuf::default()
    }

    fn sep(&mut self) {
        if self.comma.last().copied().unwrap_or(false) {
            self.out.push(',');
        }
        if let Some(c) = self.comma.last_mut() {
            *c = true;
        }
    }

    /// Opens an object (`{`) or array (`[`).
    pub fn open(&mut self, bracket: char) {
        self.sep();
        self.out.push(bracket);
        self.comma.push(false);
    }

    /// Closes an object (`}`) or array (`]`).
    pub fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma.pop();
    }

    /// Emits an object key; the next value call supplies its value.
    pub fn key(&mut self, k: &str) {
        self.sep();
        self.push_str_escaped(k);
        self.out.push(':');
        // the value that follows handles its own separator
        if let Some(c) = self.comma.last_mut() {
            *c = false;
        }
    }

    fn push_str_escaped(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => self.out.push_str(&format!("\\u{:04x}", c as u32)),
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Emits a string value (escaped).
    pub fn str_val(&mut self, s: &str) {
        self.sep();
        self.push_str_escaped(s);
    }

    /// Emits a float value; non-finite floats serialize as `null`.
    pub fn num(&mut self, v: f64) {
        self.sep();
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Emits an unsigned integer value.
    pub fn uint(&mut self, v: u64) {
        self.sep();
        self.out.push_str(&v.to_string());
    }

    /// Emits a boolean value.
    pub fn bool_val(&mut self, v: bool) {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emits a literal `null`.
    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    /// The serialized bytes so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Consumes the buffer, returning the document with a trailing newline.
    pub fn finish_line(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_buf_escapes_and_nests() {
        let mut j = JsonBuf::new();
        j.open('{');
        j.key("a\"b");
        j.str_val("x\ny");
        j.key("n");
        j.num(1.5);
        j.key("bad");
        j.num(f64::NAN);
        j.key("arr");
        j.open('[');
        j.uint(1);
        j.uint(2);
        j.close(']');
        j.close('}');
        assert_eq!(j.as_str(), "{\"a\\\"b\":\"x\\ny\",\"n\":1.5,\"bad\":null,\"arr\":[1,2]}");
    }

    #[test]
    fn finish_line_appends_newline() {
        let mut j = JsonBuf::new();
        j.open('{');
        j.close('}');
        assert_eq!(j.finish_line(), "{}\n");
    }

    #[test]
    fn bool_and_null_values() {
        let mut j = JsonBuf::new();
        j.open('{');
        j.key("yes");
        j.bool_val(true);
        j.key("no");
        j.bool_val(false);
        j.key("none");
        j.null();
        j.close('}');
        assert_eq!(j.as_str(), "{\"yes\":true,\"no\":false,\"none\":null}");
    }
}
