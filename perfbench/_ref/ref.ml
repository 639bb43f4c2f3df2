(* The speed reference of perfbench. A fixed miniature inclusion-based
   points-to propagation over a seeded graph: hash tables, a worklist and
   short-lived lists, so it allocates and chases pointers the way the
   analysis does, without sharing any of its code.

   Protocol: one line "N" on stdin runs one untimed unit, to bring the
   kernel's data back into cache after whatever ran before, then N timed
   units; the reply line is the wall seconds the N units took. End of
   input exits. *)

let nodes = 2000
let edges = 3000
let objs = 16

(* a fixed xorshift generator, so every unit does exactly the same work *)
let graph =
  let s = ref 88172645 in
  let next bound =
    s := !s lxor ((!s lsl 13) land 0xffffffff);
    s := !s lxor (!s lsr 17);
    s := !s lxor ((!s lsl 5) land 0xffffffff);
    !s mod bound
  in
  let succ = Array.make nodes [] in
  for _ = 1 to edges do
    let a = next nodes and b = next nodes in
    succ.(a) <- b :: succ.(a)
  done;
  let seeds = Array.init objs (fun o -> (next nodes, o)) in
  (succ, seeds)

let unit_ () =
  let succ, seeds = graph in
  let pts = Array.init nodes (fun _ -> Hashtbl.create 4) in
  let wl = Queue.create () in
  Array.iter (fun (n, o) -> Queue.add (n, [ o ]) wl) seeds;
  let total = ref 0 in
  while not (Queue.is_empty wl) do
    let n, delta = Queue.pop wl in
    let fresh =
      List.filter
        (fun o ->
          if Hashtbl.mem pts.(n) o then false
          else (
            Hashtbl.replace pts.(n) o ();
            true))
        delta
    in
    if fresh <> [] then begin
      total := !total + List.length fresh;
      List.iter (fun m -> Queue.add (m, fresh) wl) succ.(n)
    end
  done;
  !total

let () =
  let expect = unit_ () in
  try
    while true do
      let n = int_of_string (String.trim (input_line stdin)) in
      ignore (unit_ ());
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        if unit_ () <> expect then failwith "reference kernel diverged"
      done;
      Printf.printf "%.9f\n%!" (Unix.gettimeofday () -. t0)
    done
  with End_of_file -> ()
