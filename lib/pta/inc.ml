(** Method-level source edits for the session's [update] request (DESIGN.md
    S20).

    An update is a textual patch of the base revision's source followed by an
    ordinary solve of the patched program: no solver state is carried across
    revisions. The patcher finds classes, methods and braces on the lexer's
    token stream, so it skips exactly the comments and string literals the
    compiler skips. *)

module Lexer = Csc_lang.Lexer

type edit =
  | Replace_method of { cls : string; meth : string; body : string }
  | Add_method of { cls : string; meth_src : string }
  | Remove_method of { cls : string; meth : string }

(* The tokens the patcher looks at; every other token is [Other], and
   [Meth] is an identifier naming the edited method. *)
type tk = Lbrace | Rbrace | Lparen | Rparen | Semi | Meth | Other

let kind ~meth (tok : Lexer.token) =
  match tok with
  | Lexer.PUNCT "{" -> Lbrace
  | Lexer.PUNCT "}" -> Rbrace
  | Lexer.PUNCT "(" -> Lparen
  | Lexer.PUNCT ")" -> Rparen
  | Lexer.PUNCT ";" -> Semi
  | Lexer.IDENT s when String.equal s meth -> Meth
  | _ -> Other

exception Closed

(* Kinds and byte offsets of the tokens of the body of [class cls], from
   its '{' to the matching '}'. Only that stretch is kept, and the scan
   stops at its end, so a patch of a large source stays cheap. *)
let class_body (src : string) ~cls ~meth : (tk * int) array option =
  let body = ref [] and depth = ref 0 in
  let head = ref false in (* seen [class cls] *)
  let outer = ref (-1) in (* brace depth around the body, once it opened *)
  let prev = ref Lexer.EOF in
  match
    Lexer.scan src (fun tok _ off ->
        (match (!prev, tok) with
        | Lexer.KW "class", Lexer.IDENT c when String.equal c cls -> head := true
        | _ -> ());
        prev := tok;
        let k = kind ~meth tok in
        if !head && !outer < 0 && k = Lbrace then outer := !depth;
        if !outer >= 0 then body := (k, off) :: !body;
        match k with
        | Lbrace -> incr depth
        | Rbrace ->
          decr depth;
          if !depth = !outer then raise Closed
        | _ -> ())
  with
  | () -> None
  | exception Closed -> Some (Array.of_list (List.rev !body))

(* index of the token closing the '{' at token [i] *)
let match_brace toks i : int option =
  let rec go j depth =
    if j >= Array.length toks then None
    else
      match fst toks.(j) with
      | Lbrace -> go (j + 1) (depth + 1)
      | Rbrace -> if depth = 1 then Some j else go (j + 1) (depth - 1)
      | _ -> go (j + 1) depth
  in
  go i 0

(* (member_start, body_open, body_close) token indices of the first method
   declared directly in a class body [toks] (as [class_body] returns it)
   whose name is a [Meth] token. [member_start] is the previous member's
   closing ';' or '}', or the class's '{'. *)
let find_method toks : (int * int * int) option =
  let last = Array.length toks - 1 in
  let is i k = i < last && fst toks.(i) = k in
  let rec go i depth start =
    if i >= last then None
    else
      match fst toks.(i) with
      | Lbrace -> go (i + 1) (depth + 1) start
      | Rbrace -> go (i + 1) (depth - 1) (if depth = 1 then i else start)
      | Semi when depth = 0 -> go (i + 1) depth i
      | Meth when depth = 0 && is (i + 1) Lparen -> (
        let rec rparen j = if j >= last || is j Rparen then j else rparen (j + 1) in
        let b = rparen (i + 2) + 1 in
        match if is b Lbrace then match_brace toks b else None with
        | Some e -> Some (start, b, e)
        | None -> go (i + 1) depth start)
      | _ -> go (i + 1) depth start
  in
  go 1 0 0

let apply_edit (src : string) (e : edit) : (string, string) result =
  let cls, meth =
    match e with
    | Replace_method { cls; meth; _ } | Remove_method { cls; meth } -> (cls, meth)
    | Add_method { cls; _ } -> (cls, "") (* no method to find *)
  in
  let sub a b = String.sub src a (b - a) in
  let len = String.length src in
  match class_body src ~cls ~meth with
  | exception Csc_lang.Ast.Syntax_error (pos, msg) ->
    Error (Printf.sprintf "edit: %d:%d: %s" pos.line pos.col msg)
  | None -> Error (Printf.sprintf "edit: class %s not found" cls)
  | Some toks -> (
    let off i = snd toks.(i) in
    match (e, find_method toks) with
    | Add_method { meth_src; _ }, _ ->
      let at = off (Array.length toks - 1) in
      Ok (sub 0 at ^ "  " ^ meth_src ^ "\n" ^ sub at len)
    | Replace_method { body; _ }, Some (_, bopen, bclose) ->
      Ok (sub 0 (off bopen + 1) ^ "\n" ^ body ^ "\n  " ^ sub (off bclose) len)
    | Remove_method _, Some (start, _, bclose) ->
      Ok (sub 0 (off start + 1) ^ sub (off bclose + 1) len)
    | (Replace_method _ | Remove_method _), None ->
      Error (Printf.sprintf "edit: method %s.%s not found" cls meth))

let apply_edits (src : string) (edits : edit list) : (string, string) result =
  List.fold_left (fun acc e -> Result.bind acc (fun s -> apply_edit s e)) (Ok src) edits

(* ------------------------------------------------------------------ info *)

(** What an update reports about itself in the [inc] block of its reply.
    Updates always solve the patched program afresh, so [i_mode] is always
    [`Fresh] and the counters are 0. The [`Incremental] tag and the counters
    stay because the reply schema and the benchmark's tracer (which is
    frozen with the benchmark) read them. *)
type info = {
  i_mode : [ `Incremental | `Fresh ];
  i_dirty_methods : int;
  i_preloaded : int;
  i_retracted : int;
  i_reuse : float;
}

let fresh =
  { i_mode = `Fresh; i_dirty_methods = 0; i_preloaded = 0; i_retracted = 0;
    i_reuse = 0. }

let info_json (i : info) : (string * Csc_obs.Json.t) list =
  let open Csc_obs.Json in
  [
    ("mode", Str (match i.i_mode with `Incremental -> "incremental" | `Fresh -> "fresh"));
    ("dirty_methods", Int i.i_dirty_methods);
    ("preloaded", Int i.i_preloaded);
    ("retracted", Int i.i_retracted);
    ("reuse_pct", Float (100. *. i.i_reuse));
  ]
