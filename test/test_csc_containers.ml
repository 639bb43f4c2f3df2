(** Deeper container-pattern tests: every Entrance/Exit/Transfer spec entry
    exercised at least once, plus aliasing and flow-through-heap cases for
    the pointer-host map. *)

open Helpers
module Csc = Csc_core.Csc
module Solver = Csc_pta.Solver
module Bits = Csc_common.Bits

let csc src =
  let p = compile src in
  (p, Solver.result (Solver.analyze ~plugin_of:Csc.plugin p))

let two_containers_template ~mk ~add ~read =
  Printf.sprintf
    {|
class A { }
class B { }
class Main {
  static void main() {
    %s c1 = new %s();
    %s(c1, new A());
    %s c2 = new %s();
    %s(c2, new B());
    Object x = %s(c1);
    Object y = %s(c2);
    System.print(x);
    System.print(y);
  }
}
class H {
  static void put(%s c, Object v) { %s; }
  static Object take(%s c) { return %s; }
}
|}
    mk mk "H.put" mk mk "H.put" "H.take" "H.take" mk add mk read

(* NOTE: H.put/H.take wrappers have container calls with *parameter*
   receivers, so the pointer-host map must flow hosts through parameters. *)

let check_precise name src =
  let p, r = csc src in
  Alcotest.(check int) (name ^ ": x precise") 1 (pt_size r (var p "Main.main" "x"));
  Alcotest.(check int) (name ^ ": y precise") 1 (pt_size r (var p "Main.main" "y"));
  Alcotest.(check bool) (name ^ ": disjoint") false
    (Bits.inter_nonempty
       (r.r_pt (var p "Main.main" "x"))
       (r.r_pt (var p "Main.main" "y")))

(* Wrapping add/get inside helper methods merges pt_H at the single inner
   call site: the container pattern is call-site precise, and (faithfully to
   the paper, whose nested-call handling covers only field accesses) it does
   not propagate Entrances/Exits through wrappers. Assert merged-but-sound. *)
let check_wrapper_merged name src =
  let p, r = csc src in
  let x = r.r_pt (var p "Main.main" "x") in
  Alcotest.(check int) (name ^ ": merged through wrapper") 2 (Bits.cardinal x);
  check_recall p r

let test_arraylist_via_params () =
  check_wrapper_merged "arraylist"
    (two_containers_template ~mk:"ArrayList" ~add:"c.add(v)" ~read:"c.get(0)")

let test_linkedlist_via_params () =
  check_wrapper_merged "linkedlist"
    (two_containers_template ~mk:"LinkedList" ~add:"c.add(v)" ~read:"c.get(0)")

let test_arraylist_set_and_removelast () =
  let src =
    {|
class A { }
class B { }
class Main {
  static void main() {
    ArrayList c1 = new ArrayList();
    c1.add(null);
    c1.set(0, new A());
    ArrayList c2 = new ArrayList();
    c2.add(new B());
    Object x = c1.get(0);
    Object y = c2.removeLast();
    System.print(x);
    System.print(y);
  }
}
|}
  in
  check_precise "set/removeLast" src

let test_hashset_via_collection_type () =
  let src =
    {|
class A { }
class B { }
class Main {
  static void main() {
    Collection c1 = new HashSet();
    c1.add(new A());
    Collection c2 = new HashSet();
    c2.add(new B());
    Iterator i1 = c1.iterator();
    Iterator i2 = c2.iterator();
    Object x = i1.next();
    Object y = i2.next();
    System.print(x);
    System.print(y);
  }
}
|}
  in
  check_precise "hashset-collection" src

let test_map_values_view () =
  let src =
    {|
class A { }
class B { }
class K { }
class Main {
  static void main() {
    HashMap m1 = new HashMap();
    m1.put(new K(), new A());
    HashMap m2 = new HashMap();
    m2.put(new K(), new B());
    Iterator v1 = m1.values().iterator();
    Iterator v2 = m2.values().iterator();
    Object x = v1.next();
    Object y = v2.next();
    System.print(x);
    System.print(y);
  }
}
|}
  in
  check_precise "map-values" src

let test_iterator_stored_in_field () =
  (* host-dependent object stored in the heap and loaded back: pt_H must
     flow through field store/load edges *)
  let src =
    {|
class A { }
class B { }
class Holder {
  Iterator it;
}
class Main {
  static void main() {
    ArrayList c1 = new ArrayList();
    c1.add(new A());
    ArrayList c2 = new ArrayList();
    c2.add(new B());
    Holder h1 = new Holder();
    h1.it = c1.iterator();
    Holder h2 = new Holder();
    h2.it = c2.iterator();
    Object x = h1.it.next();
    Object y = h2.it.next();
    System.print(x);
    System.print(y);
  }
}
|}
  in
  check_precise "iterator-in-field" src

let test_aliased_containers_stay_sound () =
  (* two variables aliasing ONE container: reads through either alias must
     see writes through both *)
  let src =
    {|
class A { }
class B { }
class Main {
  static void main() {
    ArrayList c = new ArrayList();
    ArrayList alias = c;
    c.add(new A());
    alias.add(new B());
    Object x = c.get(1);
    System.print(x);
  }
}
|}
  in
  let p, r = csc src in
  Alcotest.(check int) "x sees both (aliased writes)" 2
    (pt_size r (var p "Main.main" "x"))

let test_container_passed_through_localflow () =
  (* a container returned through a local-flow util keeps its host identity *)
  let src =
    {|
class A { }
class B { }
class Main {
  static void main() {
    ArrayList c1 = new ArrayList();
    c1.add(new A());
    ArrayList c2 = new ArrayList();
    c2.add(new B());
    ArrayList picked = (ArrayList) Util.id(c1);
    Object x = picked.get(0);
    System.print(x);
    Object y = c2.get(0);
    System.print(y);
  }
}
|}
  in
  check_precise "via-util-id" src

let test_map_key_collision_sound () =
  (* same key object used in two maps: each map's value stays its own *)
  let src =
    {|
class A { }
class B { }
class K { }
class Main {
  static void main() {
    K shared = new K();
    HashMap m1 = new HashMap();
    m1.put(shared, new A());
    HashMap m2 = new HashMap();
    m2.put(shared, new B());
    Object x = m1.get(shared);
    Object y = m2.get(shared);
    System.print(x);
    System.print(y);
  }
}
|}
  in
  check_precise "shared-key" src

let test_stringbuilder_chain_fluency () =
  (* fluent chains: the local-flow cut on append's `return this` *)
  let src =
    {|
class A { }
class B { }
class Main {
  static void main() {
    A a1 = new A();
    StringBuilder sb1 = new StringBuilder();
    StringBuilder end1 = sb1.append(a1).append(a1);
    StringBuilder sb2 = new StringBuilder();
    StringBuilder end2 = sb2.append(new B());
    Object x = end1.part(0);
    Object y = end2.part(0);
    System.print(x);
    System.print(y);
  }
}
|}
  in
  let p, r = csc src in
  (* end1 must be exactly sb1 *)
  Alcotest.(check int) "fluent receiver precise" 1
    (pt_size r (var p "Main.main" "end1"));
  check_precise "builder-chain" src

(* One ArrayList with [s] adds and [t] gets: the container pattern routes
   the pairs through one relay pointer, so it installs s + t shortcut
   edges, not s x t, and every get still sees exactly the added objects. *)
let test_relay_is_additive () =
  List.iter
    (fun (s, t) ->
      let src =
        Printf.sprintf
          {|
class A { }
class Main {
  static void main() {
    ArrayList l = new ArrayList();
%s%s  }
}
|}
          (String.concat ""
             (List.init s (fun i ->
                  Printf.sprintf "    A a%d = new A();\n    l.add(a%d);\n" i i)))
          (String.concat ""
             (List.init t (fun j ->
                  Printf.sprintf "    Object g%d = l.get(%d);\n    System.print(g%d);\n"
                    j j j)))
      in
      let p = compile src in
      let solver = Solver.create p in
      Solver.set_plugin solver (Csc.plugin solver);
      Solver.run solver;
      let r = Solver.result solver in
      let tag = Printf.sprintf "%d adds, %d gets" s t in
      Alcotest.(check (option int))
        (tag ^ ": container shortcuts")
        (Some (s + t))
        (Csc_obs.Snapshot.counter_value
           ~labels:[ ("pattern", "container") ]
           (Solver.snapshot solver) "csc_shortcuts");
      let added = Bits.create () in
      for i = 0 to s - 1 do
        Bits.union_quiet ~into:added (r.r_pt (var p "Main.main" (Printf.sprintf "a%d" i)))
      done;
      Alcotest.(check int) (tag ^ ": one object per add") s (Bits.cardinal added);
      for j = 0 to t - 1 do
        Alcotest.(check (list int))
          (Printf.sprintf "%s: g%d sees every add" tag j)
          (Bits.to_list added)
          (Bits.to_list (r.r_pt (var p "Main.main" (Printf.sprintf "g%d" j))))
      done)
    [ (1, 1); (3, 2); (4, 3) ]

(* The relay pointer belongs to no method, so the involved set is what
   direct Source x Target edges give (the expected list). *)
let test_relay_keeps_involved () =
  let p = compile Fixtures.bags in
  let solver = Solver.create p in
  let pl, h = Csc.plugin_with_handle solver in
  Solver.set_plugin solver pl;
  Solver.run solver;
  Alcotest.(check (list string))
    "involved methods"
    [ "ArrayList.get"; "HashMap.get"; "HashMap.keySet"; "KeySetView.<init>";
      "KeyIterator.next"; "Main.main" ]
    (List.map (Ir.method_name p) (Bits.to_list (Csc.involved_methods h)))

let suite =
  [
    ( "csc.containers",
      [
        Alcotest.test_case "arraylist via params" `Quick test_arraylist_via_params;
        Alcotest.test_case "linkedlist via params" `Quick
          test_linkedlist_via_params;
        Alcotest.test_case "set + removeLast" `Quick
          test_arraylist_set_and_removelast;
        Alcotest.test_case "hashset via Collection" `Quick
          test_hashset_via_collection_type;
        Alcotest.test_case "map values view" `Quick test_map_values_view;
        Alcotest.test_case "iterator stored in field" `Quick
          test_iterator_stored_in_field;
        Alcotest.test_case "aliased containers sound" `Quick
          test_aliased_containers_stay_sound;
        Alcotest.test_case "through local-flow util" `Quick
          test_container_passed_through_localflow;
        Alcotest.test_case "shared map key" `Quick test_map_key_collision_sound;
        Alcotest.test_case "stringbuilder fluency" `Quick
          test_stringbuilder_chain_fluency;
        Alcotest.test_case "relay: s + t shortcuts, same pts" `Quick
          test_relay_is_additive;
        Alcotest.test_case "relay: involved methods unchanged" `Quick
          test_relay_keeps_involved;
      ] );
  ]
