(** Hand-written lexer for MiniJava.

    Works over an in-memory string (all workloads are generated or embedded,
    no file IO needed at this layer) and produces a token array consumed by
    the recursive-descent parser. *)

type token =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW of string       (* class extends new return if else while true false null this static void int boolean *)
  | PUNCT of string    (* { } ( ) [ ] ; , . = == != < <= > >= + - * / % && || ! *)
  | EOF

type loc_token = { tok : token; pos : Ast.pos }

let is_keyword = function
  | "class" | "extends" | "new" | "return" | "if" | "else" | "while" | "for"
  | "instanceof" | "super" | "true" | "false" | "null" | "this" | "static"
  | "void" | "int" | "boolean" ->
    true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** [scan src f] calls [f tok pos offset] on every token of [src] in order,
    [offset] being the byte index of the token's first character, and ends
    with [EOF]. Comments and whitespace produce no call. *)
let scan (src : string) (f : token -> Ast.pos -> int -> unit) : unit =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = Ast.{ line = !line; col = i - !bol + 1 } in
  let i = ref 0 in
  let err p fmt = Ast.syntax_error p fmt in
  let emit start t = f t (pos start) start in
  while !i < n do
    let c = src.[!i] in
    let start = !i in
    let next = if !i + 1 < n then src.[!i + 1] else '\000' in
    if c = '\n' then begin
      incr line;
      incr i;
      bol := !i
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && next = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && next = '*' then begin
      let p = pos start in
      i := !i + 2;
      let fin = ref false in
      while not !fin do
        if !i + 1 >= n then err p "unterminated comment";
        if src.[!i] = '\n' then begin
          incr line;
          bol := !i + 1
        end;
        if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          i := !i + 2;
          fin := true
        end
        else incr i
      done
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      emit start (INT (int_of_string (String.sub src !i (!j - !i))));
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let s = String.sub src !i (!j - !i) in
      emit start (if is_keyword s then KW s else IDENT s);
      i := !j
    end
    else if c = '"' then begin
      let p = pos start in
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\n' then err p "unterminated string literal";
        if src.[!j] = '\\' && !j + 1 < n then begin
          (match src.[!j + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | ch -> Buffer.add_char buf ch);
          j := !j + 2
        end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      if !j >= n then err p "unterminated string literal";
      emit start (STRING (Buffer.contents buf));
      i := !j + 1
    end
    else
      match (c, next) with
      | ('=' | '!' | '<' | '>'), '=' | '&', '&' | '|', '|' ->
        emit start (PUNCT (String.sub src !i 2));
        i := !i + 2
      | ( ( '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | '.' | '=' | '<'
          | '>' | '+' | '-' | '*' | '/' | '%' | '!' ),
          _ ) ->
        emit start (PUNCT (String.make 1 c));
        incr i
      | _ -> err (pos start) "unexpected character %C" c
  done;
  f EOF (pos n) n

let tokenize (src : string) : loc_token array =
  (* a growable array filled in place; sources average about one token per
     three bytes, so the first guess rarely needs doubling *)
  let blank = { tok = EOF; pos = Ast.{ line = 0; col = 0 } } in
  let toks = ref (Array.make ((String.length src / 3) + 16) blank) in
  let n = ref 0 in
  scan src (fun tok pos _ ->
      if !n = Array.length !toks then begin
        let bigger = Array.make (2 * !n) blank in
        Array.blit !toks 0 bigger 0 !n;
        toks := bigger
      end;
      !toks.(!n) <- { tok; pos };
      incr n);
  Array.sub !toks 0 !n
