(* The benchmark's own span recorder.

   Spans are recorded from the benchmark's files around each call into a
   layer, never through Genas_obs.Trace, so a change to the program's
   tracer cannot move the ruler. Storage is a preallocated ring: once
   full, each new span overwrites the oldest, which counts as dropped,
   so recording costs the same at any point of a run. The retained
   spans are written out as Chrome trace events when the run ends. *)

type t = {
  mutable names : string array;
  name : int array;
  trace : int array;
  parent : int array;
  start : int array;
  stop : int array;
  mutable n : int;  (** spans recorded so far, retained or not *)
}

let create capacity =
  {
    names = [||];
    name = Array.make capacity 0;
    trace = Array.make capacity 0;
    parent = Array.make capacity (-1);
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    n = 0;
  }

(* A span name's index, registered on first use. Resolve names once,
   outside the measured loops. *)
let intern t s =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| s |];
      i
    end
    else if String.equal t.names.(i) s then i
    else find (i + 1)
  in
  find 0

(* Record one span and return its id. Spans of one request share
   [trace]; [parent] is the id of the span that caused this one (-1 for
   a root). A parent recorded before its children is closed later with
   {!finish}. *)
let add t ~name ~trace ~parent start stop =
  let id = t.n in
  let i = id mod Array.length t.name in
  t.name.(i) <- name;
  t.trace.(i) <- trace;
  t.parent.(i) <- parent;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.n <- id + 1;
  id

let finish t id stop =
  if id >= t.n - Array.length t.name then t.stop.(id mod Array.length t.name) <- stop

let recorded t = t.n

let dropped t = max 0 (t.n - Array.length t.name)

(* Chrome trace-event JSON of the retained spans, oldest first,
   timestamps in µs from the earliest one. *)
let write t path =
  let cap = Array.length t.name in
  let first = dropped t in
  let t0 = ref max_int in
  for id = first to t.n - 1 do
    t0 := min !t0 t.start.(id mod cap)
  done;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      for id = first to t.n - 1 do
        let i = id mod cap in
        Printf.fprintf oc
          "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"trace\":%d,\"parent\":%d}}\n"
          (if id = first then "" else ",")
          t.names.(t.name.(i))
          (float_of_int (t.start.(i) - !t0) /. 1000.0)
          (float_of_int (t.stop.(i) - t.start.(i)) /. 1000.0)
          id t.trace.(i) t.parent.(i)
      done;
      Printf.fprintf oc "],\"dropped\":%d}\n" (dropped t))
