(** Tests for the MiniJava lexer, parser, resolver and lowering. *)

module Ir = Csc_ir.Ir

let compile src = Csc_lang.Frontend.compile_string src

let find_method p name =
  let found = ref None in
  Array.iter
    (fun (m : Ir.metho) -> if Ir.method_name p m.m_id = name then found := Some m)
    p.Ir.methods;
  match !found with
  | Some m -> m
  | None -> Alcotest.fail ("method not found: " ^ name)

let find_class p name =
  let found = ref None in
  Array.iter
    (fun (k : Ir.klass) -> if k.c_name = name then found := Some k)
    p.Ir.classes;
  match !found with
  | Some k -> k
  | None -> Alcotest.fail ("class not found: " ^ name)

let test_lexer_basic () =
  let toks = Csc_lang.Lexer.tokenize "class A { int x; } // comment" in
  let kinds =
    Array.to_list toks
    |> List.map (fun (t : Csc_lang.Lexer.loc_token) -> t.tok)
  in
  Alcotest.(check int) "token count" 8 (List.length kinds);
  match kinds with
  | KW "class" :: IDENT "A" :: PUNCT "{" :: KW "int" :: IDENT "x"
    :: PUNCT ";" :: PUNCT "}" :: EOF :: _ ->
    ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_two_char_ops () =
  let toks = Csc_lang.Lexer.tokenize "a <= b == c && d" in
  let puncts =
    Array.to_list toks
    |> List.filter_map (fun (t : Csc_lang.Lexer.loc_token) ->
           match t.tok with Csc_lang.Lexer.PUNCT p -> Some p | _ -> None)
  in
  Alcotest.(check (list string)) "ops" [ "<="; "=="; "&&" ] puncts

let test_lexer_string_escape () =
  let toks = Csc_lang.Lexer.tokenize {|"a\nb"|} in
  match toks.(0).tok with
  | Csc_lang.Lexer.STRING s -> Alcotest.(check string) "escaped" "a\nb" s
  | _ -> Alcotest.fail "expected string literal"

let test_lexer_error () =
  Alcotest.check_raises "bad char"
    (Csc_lang.Ast.Syntax_error ({ line = 1; col = 1 }, "unexpected character '#'"))
    (fun () -> ignore (Csc_lang.Lexer.tokenize "#"))

(* [tokenize] is [scan] collected into an array: same tokens, positions and
   order, on every suite program and the mini-JDK *)
let test_tokenize_matches_scan () =
  let module L = Csc_lang.Lexer in
  List.iter
    (fun (name, src) ->
      let scanned = ref [] in
      L.scan src (fun tok pos _ -> scanned := { L.tok; pos } :: !scanned);
      let expected = Array.of_list (List.rev !scanned) in
      if L.tokenize src <> expected then
        Alcotest.fail (name ^ ": tokenize differs from scan"))
    (("jdk", Csc_lang.Jdk.source)
    :: List.map
         (fun n -> (n, Csc_workloads.Suite.source n))
         Csc_workloads.Suite.names)

let test_parse_carton () =
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  Alcotest.(check int) "setItem params" 1 (Array.length setter.m_params);
  Alcotest.(check bool) "instance method" false setter.m_static;
  let getter = find_method p "Carton.getItem" in
  (match getter.m_ret_var with
  | Some v -> Alcotest.(check string) "single return var" "r" (Ir.var_name p v)
  | None -> Alcotest.fail "getter should have a return var");
  let main = find_method p "Main.main" in
  Alcotest.(check bool) "main static" true main.m_static;
  Alcotest.(check int) "program main" main.m_id p.Ir.main

let test_store_lowering () =
  (* setItem body must contain exactly one Store whose base is `this` and
     whose rhs is the parameter - no extra temps. *)
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  let stores = ref [] in
  Ir.iter_stmts
    (fun s ->
      match s with
      | Ir.Store { base; rhs; _ } -> stores := (base, rhs) :: !stores
      | _ -> ())
    setter.m_body;
  match !stores with
  | [ (base, rhs) ] ->
    Alcotest.(check string) "base is this" "this" (Ir.var_name p base);
    Alcotest.(check string) "rhs is param" "item" (Ir.var_name p rhs)
  | _ -> Alcotest.fail "expected exactly one store"

let test_def_counts () =
  let p = compile Fixtures.carton in
  let setter = find_method p "Carton.setItem" in
  let param = setter.m_params.(0) in
  Alcotest.(check int) "param never redefined" 0 p.Ir.def_counts.(param);
  (match setter.m_this with
  | Some this -> Alcotest.(check int) "this never redefined" 0 p.Ir.def_counts.(this)
  | None -> Alcotest.fail "expected this");
  let getter = find_method p "Carton.getItem" in
  match getter.m_ret_var with
  | Some r -> Alcotest.(check int) "return var defined once" 1 p.Ir.def_counts.(r)
  | None -> Alcotest.fail "expected ret var"

let test_multi_return_funnel () =
  let src =
    {|
class A {
  Object pick(boolean b, Object x, Object y) {
    if (b) { return x; }
    return y;
  }
}
class Main { static void main() { A a = new A(); System.print(a); } }
|}
  in
  let p = compile src in
  let m = find_method p "A.pick" in
  match m.m_ret_var with
  | Some v -> Alcotest.(check string) "funnelled" "$ret" (Ir.var_name p v)
  | None -> Alcotest.fail "expected $ret"

let test_vtable_override () =
  let p = compile Fixtures.poly in
  let dog = find_class p "Dog" in
  let animal = find_class p "Animal" in
  let dog_speak = Ir.dispatch p dog.c_id "speak" in
  let animal_speak = Ir.dispatch p animal.c_id "speak" in
  (match (dog_speak, animal_speak) with
  | Some d, Some a ->
    Alcotest.(check bool) "override differs" true (d <> a);
    Alcotest.(check string) "dog impl" "Dog.speak" (Ir.method_name p d)
  | _ -> Alcotest.fail "dispatch failed");
  Alcotest.(check bool) "Dog <: Animal" true
    (Ir.subclass_of p dog.c_id animal.c_id);
  Alcotest.(check bool) "Animal not <: Dog" false
    (Ir.subclass_of p animal.c_id dog.c_id)

let test_subtyping () =
  let p = compile Fixtures.poly in
  let dog = find_class p "Dog" in
  let obj = p.Ir.object_cls in
  Alcotest.(check bool) "Dog <: Object" true
    (Ir.subtype p (Tclass dog.c_id) (Tclass obj));
  Alcotest.(check bool) "null <: Dog" true (Ir.subtype p Tnull (Tclass dog.c_id));
  Alcotest.(check bool) "Dog[] <: Object" true
    (Ir.subtype p (Tarray (Tclass dog.c_id)) (Tclass obj));
  Alcotest.(check bool) "Dog[] <: Animal[]" true
    (Ir.subtype p
       (Tarray (Tclass dog.c_id))
       (Tarray (Tclass (find_class p "Animal").c_id)))

let test_cast_sites () =
  let p = compile Fixtures.poly in
  Alcotest.(check int) "two ref casts" 2 (Array.length p.Ir.casts)

let test_jdk_compiles () =
  let p = compile Fixtures.containers in
  let al = find_class p "ArrayList" in
  let coll = find_class p "Collection" in
  Alcotest.(check bool) "ArrayList <: Collection" true
    (Ir.subclass_of p al.c_id coll.c_id);
  (* ArrayList.get dispatched from Collection *)
  match Ir.dispatch p al.c_id "get" with
  | Some m -> Alcotest.(check string) "dispatch get" "ArrayList.get" (Ir.method_name p m)
  | None -> Alcotest.fail "no dispatch for get"

let test_error_unknown_var () =
  let src = "class Main { static void main() { x = 1; } }" in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, msg) ->
    Alcotest.(check bool) "mentions var" true
      (Astring.String.is_infix ~affix:"x" msg)
  | _ -> Alcotest.fail "expected semantic error"

let test_error_bad_arity () =
  let src =
    {|
class A { void m(Object x) { } }
class Main { static void main() { A a = new A(); a.m(); } }
|}
  in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, _) -> ()
  | _ -> Alcotest.fail "expected arity error"

let test_error_cycle () =
  let src =
    "class A extends B { } class B extends A { } class Main { static void main() { } }"
  in
  match compile src with
  | exception Csc_lang.Ast.Semantic_error (_, _) -> ()
  | _ -> Alcotest.fail "expected cycle error"

let test_all_fixtures_compile () =
  List.iter
    (fun (name, src) ->
      match compile src with
      | _ -> ()
      | exception e ->
        Alcotest.fail (Printf.sprintf "%s failed: %s" name (Printexc.to_string e)))
    Fixtures.all

let test_stats () =
  let p = compile Fixtures.carton in
  let s = Ir.stats p in
  Alcotest.(check bool) "has classes" true (s.n_classes > 20);
  Alcotest.(check bool) "has allocs" true (s.n_allocs >= 4);
  Alcotest.(check bool) "has calls" true (s.n_calls >= 4)

let suite =
  [
    ( "lang.lexer",
      [
        Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
        Alcotest.test_case "two-char operators" `Quick test_lexer_two_char_ops;
        Alcotest.test_case "string escapes" `Quick test_lexer_string_escape;
        Alcotest.test_case "lex error" `Quick test_lexer_error;
        Alcotest.test_case "tokenize = scan on suite and JDK" `Quick
          test_tokenize_matches_scan;
      ] );
    ( "lang.frontend",
      [
        Alcotest.test_case "carton compiles" `Quick test_parse_carton;
        Alcotest.test_case "store lowering is direct" `Quick test_store_lowering;
        Alcotest.test_case "def counts" `Quick test_def_counts;
        Alcotest.test_case "multi-return funnel" `Quick test_multi_return_funnel;
        Alcotest.test_case "vtable override" `Quick test_vtable_override;
        Alcotest.test_case "subtyping" `Quick test_subtyping;
        Alcotest.test_case "cast sites" `Quick test_cast_sites;
        Alcotest.test_case "jdk compiles" `Quick test_jdk_compiles;
        Alcotest.test_case "error: unknown var" `Quick test_error_unknown_var;
        Alcotest.test_case "error: bad arity" `Quick test_error_bad_arity;
        Alcotest.test_case "error: inheritance cycle" `Quick test_error_cycle;
        Alcotest.test_case "all fixtures compile" `Quick test_all_fixtures_compile;
        Alcotest.test_case "program stats" `Quick test_stats;
      ] );
  ]
