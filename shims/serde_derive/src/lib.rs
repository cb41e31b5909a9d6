//! Derive macros for the offline `serde` stand-in.
//!
//! The build environment cannot fetch `syn`/`quote`, so the input item is
//! parsed directly from the `proc_macro::TokenStream` and the impl is
//! generated as a source string. Supported shapes — the only ones the
//! workspace uses:
//!
//! - structs with named fields (honouring `#[serde(default)]`; `Option`
//!   fields tolerate missing keys, like real serde)
//! - newtype structs (`struct Time(u64);`) — serialized as the inner value
//! - enums with unit, newtype, and struct variants, externally tagged
//!   (`"Variant"` / `{"Variant": ...}`), matching serde's default encoding
//!
//! Generics, tuple structs with more than one field, and other serde
//! attributes are intentionally unsupported and panic with a clear message.
//!
//! The derived `Serialize` writes compact JSON directly: keys and variant
//! tags are rendered into string literals at expansion time, so a struct
//! serializes as a few `push_str` calls around one `write_json` call per
//! field. The derived `Deserialize` reads the shim's `Value` tree.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    /// `#[serde(default)]` present, or the type is `Option<..>` (serde treats
    /// a missing `Option` field as `None`).
    default: bool,
}

enum VariantKind {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

struct Variant {
    name: String,
    kind: VariantKind,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Newtype {
        name: String,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize` (the shim's direct JSON writer).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` (the shim's `Value`-based reader).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kw = ident_at(&toks, i, "struct/enum keyword");
    i += 1;
    let name = ident_at(&toks, i, "type name");
    i += 1;
    if matches!(&toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generics are not supported (on `{name}`)");
    }
    match kw.as_str() {
        "struct" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Struct {
                name,
                fields: parse_named_fields(g.stream()),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_types(g.stream());
                assert!(
                    arity == 1,
                    "serde shim derive: tuple struct `{name}` must have exactly 1 field, has {arity}"
                );
                Item::Newtype { name }
            }
            other => panic!("serde shim derive: unexpected struct body for `{name}`: {other:?}"),
        },
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g.stream()),
            },
            other => panic!("serde shim derive: unexpected enum body for `{name}`: {other:?}"),
        },
        other => panic!("serde shim derive: expected struct or enum, found `{other}`"),
    }
}

fn ident_at(toks: &[TokenTree], i: usize, what: &str) -> String {
    match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected {what}, found {other:?}"),
    }
}

/// Advances past outer attributes (`#[...]`) and a visibility qualifier.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            _ => break,
        }
    }
}

/// Skips field attributes, reporting whether `#[serde(default)]` was seen.
fn skip_field_attrs(toks: &[TokenTree], i: &mut usize) -> bool {
    let mut default = false;
    while matches!(toks.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            let body = g.stream().to_string();
            let compact: String = body.chars().filter(|c| !c.is_whitespace()).collect();
            if compact.starts_with("serde(") && compact.contains("default") {
                default = true;
            }
        }
        *i += 2;
    }
    default
}

fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut fields = Vec::new();
    while i < toks.len() {
        let mut default = skip_field_attrs(&toks, &mut i);
        skip_attrs_and_vis(&toks, &mut i);
        let name = ident_at(&toks, i, "field name");
        i += 1;
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                panic!("serde shim derive: expected `:` after field `{name}`, found {other:?}")
            }
        }
        // Scan the type: stop at a comma outside angle brackets; note whether
        // the leading path segment is `Option`.
        let mut angle = 0i32;
        let mut first_ident = true;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) => {
                    let c = p.as_char();
                    if c == ',' && angle == 0 {
                        i += 1;
                        break;
                    }
                    if c == '<' {
                        angle += 1;
                    } else if c == '>' {
                        angle -= 1;
                    }
                }
                TokenTree::Ident(id) => {
                    if first_ident && id.to_string() == "Option" {
                        default = true;
                    }
                    first_ident = false;
                }
                _ => first_ident = false,
            }
            i += 1;
        }
        fields.push(Field { name, default });
    }
    fields
}

fn count_top_level_types(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut angle = 0i32;
    let mut count = 1;
    for (idx, t) in toks.iter().enumerate() {
        if let TokenTree::Punct(p) = t {
            let c = p.as_char();
            if c == '<' {
                angle += 1;
            } else if c == '>' {
                angle -= 1;
            } else if c == ',' && angle == 0 && idx + 1 < toks.len() {
                count += 1;
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut i = 0;
    let mut variants = Vec::new();
    while i < toks.len() {
        skip_field_attrs(&toks, &mut i); // e.g. #[default] on a variant
        let name = ident_at(&toks, i, "variant name");
        i += 1;
        let kind = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantKind::Struct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let arity = count_top_level_types(g.stream());
                assert!(
                    arity == 1,
                    "serde shim derive: tuple variant `{name}` must have exactly 1 field, has {arity}"
                );
                i += 1;
                VariantKind::Newtype
            }
            _ => VariantKind::Unit,
        };
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, kind });
    }
    variants
}

// ---------------------------------------------------------------- codegen

/// Accumulates the body of a generated `write_json`: literal JSON text is
/// buffered so adjacent pieces become a single `push_str`, and each field
/// value becomes one call to its own `Serialize` impl.
#[derive(Default)]
struct JsonWriter {
    code: String,
    text: String,
}

impl JsonWriter {
    /// Literal JSON text. Keys and tags are Rust identifiers, which contain
    /// no character JSON escapes, so they are quoted verbatim.
    fn text(&mut self, json: &str) {
        self.text.push_str(json);
    }

    fn value(&mut self, expr: &str) {
        self.flush();
        self.code
            .push_str(&format!("::serde::Serialize::write_json({expr}, __out);\n"));
    }

    /// `{"field":value,...}` with each value read from `access(field)`.
    fn object(&mut self, fields: &[Field], access: impl Fn(&str) -> String) {
        self.text("{");
        for (i, f) in fields.iter().enumerate() {
            let comma = if i > 0 { "," } else { "" };
            self.text(&format!("{comma}\"{}\":", f.name));
            self.value(&access(&f.name));
        }
        self.text("}");
    }

    fn flush(&mut self) {
        if !self.text.is_empty() {
            // `{:?}` renders the JSON text as a Rust string literal.
            self.code
                .push_str(&format!("__out.push_str({:?});\n", self.text));
            self.text.clear();
        }
    }

    fn finish(mut self) -> String {
        self.flush();
        self.code
    }
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let mut w = JsonWriter::default();
            w.object(fields, |f| format!("&self.{f}"));
            (name, w.finish())
        }
        Item::Newtype { name } => (
            name,
            "::serde::Serialize::write_json(&self.0, __out);".to_string(),
        ),
        Item::Enum { name, variants } => (name, {
            // Externally tagged: `"Unit"`, `{"Newtype":..}`, `{"Struct":{..}}`.
            let mut b = String::from("match self {\n");
            for v in variants {
                let vname = &v.name;
                let mut w = JsonWriter::default();
                let pattern = match &v.kind {
                    VariantKind::Unit => {
                        w.text(&format!("\"{vname}\""));
                        format!("{name}::{vname}")
                    }
                    VariantKind::Newtype => {
                        w.text(&format!("{{\"{vname}\":"));
                        w.value("__x");
                        w.text("}");
                        format!("{name}::{vname}(__x)")
                    }
                    VariantKind::Struct(fields) => {
                        w.text(&format!("{{\"{vname}\":"));
                        w.object(fields, str::to_string);
                        w.text("}");
                        let bound: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        format!("{name}::{vname} {{ {} }}", bound.join(", "))
                    }
                };
                b.push_str(&format!("{pattern} => {{\n{}}}\n", w.finish()));
            }
            b.push('}');
            b
        }),
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic, dead_code)]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n\
         }}\n"
    )
}

fn gen_field_extraction(type_name: &str, fields: &[Field], obj_var: &str) -> String {
    let mut b = String::new();
    for f in fields {
        let fname = &f.name;
        let missing = if f.default {
            "::std::default::Default::default()".to_string()
        } else {
            format!(
                "return ::std::result::Result::Err(::serde::Error::custom(\
                 \"missing field `{fname}` in {type_name}\"))"
            )
        };
        b.push_str(&format!(
            "{fname}: match __find(&{obj_var}, \"{fname}\") {{\n\
                 ::std::option::Option::Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\n\
                 ::std::option::Option::None => {missing},\n\
             }},\n"
        ));
    }
    b
}

fn gen_deserialize(item: &Item) -> String {
    let find_helper =
        "fn __find<'__a>(__obj: &'__a [(::std::string::String, ::serde::Value)], __key: &str) \
                       -> ::std::option::Option<&'__a ::serde::Value> {\n\
                           __obj.iter().find(|__kv| __kv.0 == __key).map(|__kv| &__kv.1)\n\
                       }\n";
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, {
            let mut b = String::from(find_helper);
            b.push_str(&format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::Error::custom(\"expected object for {name}\"))?;\n"
            ));
            b.push_str(&format!("::std::result::Result::Ok({name} {{\n"));
            b.push_str(&gen_field_extraction(name, fields, "__obj"));
            b.push_str("})");
            b
        }),
        Item::Newtype { name } => (
            name,
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"),
        ),
        Item::Enum { name, variants } => {
            (name, {
                let mut b = String::from(find_helper);
                // Unit variants arrive as a bare string.
                b.push_str("if let ::std::option::Option::Some(__s) = __v.as_str() {\nreturn match __s {\n");
                for v in variants {
                    if matches!(v.kind, VariantKind::Unit) {
                        let vname = &v.name;
                        b.push_str(&format!(
                            "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
                        ));
                    }
                }
                b.push_str(&format!(
                    "__other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` for {name}\"))),\n}};\n}}\n"
                ));
                // Data variants arrive externally tagged: {"Variant": ...}.
                b.push_str(
                    "if let ::std::option::Option::Some(__obj) = __v.as_object() {\n\
                 if __obj.len() == 1 {\n\
                 let (__tag, __inner) = (&__obj[0].0, &__obj[0].1);\n\
                 return match __tag.as_str() {\n",
                );
                for v in variants {
                    let vname = &v.name;
                    match &v.kind {
                        VariantKind::Unit => {}
                        VariantKind::Newtype => b.push_str(&format!(
                            "\"{vname}\" => ::std::result::Result::Ok(\
                         {name}::{vname}(::serde::Deserialize::from_value(__inner)?)),\n"
                        )),
                        VariantKind::Struct(fields) => {
                            b.push_str(&format!(
                                "\"{vname}\" => {{\n\
                             let __fobj = __inner.as_object().ok_or_else(|| \
                             ::serde::Error::custom(\"expected object for {name}::{vname}\"))?;\n\
                             ::std::result::Result::Ok({name}::{vname} {{\n"
                            ));
                            b.push_str(&gen_field_extraction(name, fields, "__fobj"));
                            b.push_str("})\n}\n");
                        }
                    }
                }
                b.push_str(&format!(
                    "__other => ::std::result::Result::Err(::serde::Error::custom(\
                 ::std::format!(\"unknown variant `{{__other}}` for {name}\"))),\n}};\n}}\n}}\n"
                ));
                b.push_str(&format!(
                "::std::result::Result::Err(::serde::Error::custom(\"invalid value for enum {name}\"))"
            ));
                b
            })
        }
    };
    format!(
        "#[automatically_derived]\n\
         #[allow(clippy::all, clippy::pedantic, unused_variables, dead_code, unreachable_code)]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n\
         }}\n"
    )
}
