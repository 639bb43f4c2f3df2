(** Tests for edited revisions: the textual method patcher
    ({!Csc_pta.Inc.apply_edits}) and {!Csc_driver.Session.update}, whose
    answer must be bit-identical to a fresh solve of the edited source. *)

open Helpers
module Run = Csc_driver.Run
module Session = Csc_driver.Session
module Inc = Csc_pta.Inc
module Soundness = Csc_fuzz.Soundness

let ok_edit src edits =
  match Inc.apply_edits src edits with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let err_edit src edits =
  match Inc.apply_edits src edits with
  | Ok _ -> Alcotest.fail "edit unexpectedly succeeded"
  | Error e ->
    Alcotest.(check bool) "error is descriptive" true (String.length e > 0)

(* bit-identical results (reachable set, call edges, all points-to sets) *)
let check_identical msg p a b =
  match Soundness.identical p a b with
  | None -> ()
  | Some detail -> Alcotest.failf "%s: %s" msg detail

let solve spec p =
  match (Run.run_spec spec p).Run.o_result with
  | Some r -> r
  | None -> Alcotest.fail "fresh solve produced no result"

(* ------------------------------------------------------------- patcher *)

let test_patch_replace () =
  let src =
    ok_edit Fixtures.carton
      [
        Inc.Replace_method
          {
            cls = "Carton";
            meth = "getItem";
            body = "Item r = this.item; return r;";
          };
      ]
  in
  let p = compile src in
  ignore (find_method p "Carton.getItem");
  (* the replacement body is equivalent, so precision is unchanged *)
  let spec = Run.spec Run.Imp_csc in
  let r = solve spec p in
  Alcotest.(check int) "result1 still precise" 1
    (pt_size r (var p "Main.main" "result1"))

let test_patch_errors () =
  err_edit Fixtures.carton
    [ Inc.Remove_method { cls = "Warehouse"; meth = "getItem" } ];
  err_edit Fixtures.carton
    [ Inc.Replace_method { cls = "Carton"; meth = "stealItem"; body = "" } ];
  (* [item] is a field, not a method: the patcher must not bite on it *)
  err_edit Fixtures.carton
    [ Inc.Remove_method { cls = "Carton"; meth = "item" } ]

let test_patch_add_then_remove () =
  let added =
    ok_edit Fixtures.carton
      [
        Inc.Add_method
          {
            cls = "Carton";
            meth_src = "Item peek() { Item r = this.item; return r; }";
          };
      ]
  in
  let pa = compile added in
  ignore (find_method pa "Carton.peek");
  let restored =
    ok_edit added [ Inc.Remove_method { cls = "Carton"; meth = "peek" } ]
  in
  let p0 = compile Fixtures.carton in
  let p1 = compile restored in
  Alcotest.(check int) "same method count"
    (Array.length p0.Ir.methods)
    (Array.length p1.Ir.methods);
  let spec = Run.spec Run.Imp_csc in
  check_identical "add-then-remove restores results" p0 (solve spec p0)
    (solve spec p1)

(* The patcher must skip exactly what the lexer skips. Each source hides a
   brace, a quote or a whole class where a character scanner would see
   code; replacing [A.m] must splice the real body, and the result must
   still compile. *)
let test_patch_skips_comments_and_strings () =
  let main_src =
    "class Main {\n  static void main() {\n    A a = new A();\n    a.m();\n\
    \  }\n}\n"
  in
  let a_src = "class A {\n  int m() {\nreturn 2;\n  }\n}\n" ^ main_src in
  List.iter
    (fun (name, src, expect) ->
      let got =
        ok_edit src [ Inc.Replace_method { cls = "A"; meth = "m"; body = "return 2;" } ]
      in
      Alcotest.(check string) name expect got;
      ignore (compile got))
    [
      ( "brace inside a block comment",
        "class A {\n  int m() {\n    /* } */\n    return 1;\n  }\n}\n" ^ main_src,
        a_src );
      ( "escaped quote inside a string",
        "class A {\n  int m() {\n    Object s = \"say \\\"{\\\"\";\n    return 1;\n\
        \  }\n}\n" ^ main_src,
        a_src );
      ( "class named in a line comment",
        "// class A { int m() { return 0; } }\n" ^ "class A {\n  int m() {\n    \
         return 1;\n  }\n}\n" ^ main_src,
        "// class A { int m() { return 0; } }\n" ^ a_src );
    ]

(* ------------------------------------------------------------- update *)

let session_with src =
  let s = Session.create () in
  match Session.load_source s ~name:"base" src with
  | Ok (p, digest) -> (s, p, digest)
  | Error e -> Alcotest.fail e

let update s ~digest spec edits =
  match Session.update s ~digest ~edits spec with
  | Ok u -> u
  | Error e -> Alcotest.fail e

let result_of (o : Run.outcome) =
  match o.Run.o_result with
  | Some r -> r
  | None -> Alcotest.fail "update produced no result"

let same_body =
  Inc.Replace_method
    { cls = "Carton"; meth = "getItem"; body = "Item r = this.item; return r;" }

let new_item =
  Inc.Replace_method
    {
      cls = "Carton";
      meth = "getItem";
      body = "Item r = new Item(); this.item = r; return r;";
    }

(* re-spelling a method body with the same statements changes the digest
   but not one fact *)
let test_update_noop () =
  List.iter
    (fun a ->
      let spec = Run.spec a in
      let s, p0, digest = session_with Fixtures.carton in
      let o0, _ = Session.outcome s ~digest spec p0 in
      let u = update s ~digest spec [ same_body ] in
      Alcotest.(check bool) (Run.name a ^ ": new digest") true
        (u.Session.up_digest <> digest);
      check_identical (Run.name a ^ ": no-op update") p0 (result_of o0)
        (result_of u.Session.up_outcome))
    [ Run.Imp_ci; Run.Imp_csc ]

(* a real single-method edit answers exactly what a fresh solve of the
   edited source does, and a repeat is a cache hit *)
let test_update_single_edit () =
  List.iter
    (fun a ->
      let spec = Run.spec a in
      let s, _, digest = session_with Fixtures.carton in
      let u = update s ~digest spec [ new_item ] in
      Alcotest.(check bool) (Run.name a ^ ": fresh mode") true
        (u.Session.up_info.Inc.i_mode = `Fresh);
      Alcotest.(check bool) (Run.name a ^ ": solved") false u.Session.up_cached;
      let p1 = compile (ok_edit Fixtures.carton [ new_item ]) in
      check_identical (Run.name a ^ ": update = fresh") p1 (solve spec p1)
        (result_of u.Session.up_outcome);
      let again = update s ~digest spec [ new_item ] in
      Alcotest.(check bool) (Run.name a ^ ": repeat cached") true
        again.Session.up_cached;
      Alcotest.(check string) (Run.name a ^ ": same digest")
        u.Session.up_digest again.Session.up_digest)
    [ Run.Imp_ci; Run.Imp_csc; Run.Imp_kobj 2 ]

(* a chain of updates, each on the previous reply's digest: every step
   equals a fresh solve of that revision, and the last one edits back to
   the original program *)
let test_update_chain () =
  let spec = Run.spec Run.Imp_csc in
  let s, p0, digest = session_with Fixtures.carton in
  let steps =
    [
      [ new_item ];
      [
        Inc.Add_method
          {
            cls = "Carton";
            meth_src = "Item peek() { Item r = this.item; return r; }";
          };
      ];
      [ Inc.Remove_method { cls = "Carton"; meth = "peek" } ];
      [ same_body ];
    ]
  in
  let fresh0 = solve spec p0 in
  let _, _, last =
    List.fold_left
      (fun (digest, src, _) edits ->
        let src = ok_edit src edits in
        let u = update s ~digest spec edits in
        let p = compile src in
        let r = result_of u.Session.up_outcome in
        check_identical "chain step = fresh" p (solve spec p) r;
        (u.Session.up_digest, src, r))
      (digest, Fixtures.carton, fresh0)
      steps
  in
  check_identical "chain ends at the original" p0 fresh0 last

let suite =
  [
    ( "inc.patcher",
      [
        Alcotest.test_case "replace method body" `Quick test_patch_replace;
        Alcotest.test_case "unknown class/method rejected" `Quick
          test_patch_errors;
        Alcotest.test_case "add then remove restores results" `Quick
          test_patch_add_then_remove;
        Alcotest.test_case "comments and strings are skipped" `Quick
          test_patch_skips_comments_and_strings;
      ] );
    ( "inc.update",
      [
        Alcotest.test_case "edit-to-self is a no-op" `Quick test_update_noop;
        Alcotest.test_case "single edit = fresh solve" `Quick
          test_update_single_edit;
      ] );
    ( "inc.oracle",
      [ Alcotest.test_case "edit chain round-trip" `Quick test_update_chain ] );
  ]
