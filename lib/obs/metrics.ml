(* Instruments are hit concurrently: server tx threads, the monitor
   thread, client tickers, and other domains all share one registry.
   Counters and gauges are single atomics (a CAS loop keeps the
   max_int saturation exact under contention); histograms update five
   fields per observation, so each carries its own mutex. *)

type counter = { c_value : int Atomic.t }

type gauge = { g_value : float Atomic.t }

type histogram = {
  bounds : float array;  (** finite upper bounds, strictly increasing *)
  counts : int array;  (** per-bucket; [counts.(length bounds)] = overflow *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_mu : Mutex.t;
}

type instrument =
  | Counter_i of counter
  | Gauge_i of gauge
  | Histogram_i of histogram

type metric = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  inst : instrument;
}

type t = {
  mutable metrics : metric list; (* reverse registration order *)
  t_mu : Mutex.t;
}

let create () = { metrics = []; t_mu = Mutex.create () }

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let kind_name = function
  | Counter_i _ -> "counter"
  | Gauge_i _ -> "gauge"
  | Histogram_i _ -> "histogram"

let register t ~help ~labels name make =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: malformed metric name %S" name);
  let labels = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  Mutex.protect t.t_mu @@ fun () ->
  match
    List.find_opt (fun m -> m.name = name && m.labels = labels) t.metrics
  with
  | Some m -> m.inst
  | None ->
    let inst = make () in
    t.metrics <- { name; labels; help; inst } :: t.metrics;
    inst

let counter t ?(help = "") ?(labels = []) name =
  match
    register t ~help ~labels name (fun () ->
        Counter_i { c_value = Atomic.make 0 })
  with
  | Counter_i c -> c
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already a %s" name (kind_name other))

let gauge t ?(help = "") ?(labels = []) name =
  match
    register t ~help ~labels name (fun () -> Gauge_i { g_value = Atomic.make 0.0 })
  with
  | Gauge_i g -> g
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already a %s" name (kind_name other))

let exponential_buckets ~start ~factor ~count =
  if start <= 0.0 || factor <= 1.0 || count < 1 then
    invalid_arg "Metrics.exponential_buckets";
  Array.init count (fun i -> start *. (factor ** float_of_int i))

let default_latency_buckets =
  (* 100 ns .. 1 s, roughly 1-2.5-5 per decade. *)
  [|
    100.; 250.; 500.; 1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6;
    2.5e6; 5e6; 1e7; 1e8; 1e9;
  |]

let histogram t ?(help = "") ?(labels = []) ?(buckets = default_latency_buckets)
    name =
  let make () =
    let ok = ref (Array.length buckets > 0) in
    Array.iteri
      (fun i b ->
        if (not (Float.is_finite b)) || (i > 0 && b <= buckets.(i - 1)) then
          ok := false)
      buckets;
    if not !ok then
      invalid_arg
        (Printf.sprintf
           "Metrics: histogram %S needs strictly increasing finite buckets"
           name);
    Histogram_i
      {
        bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = Float.infinity;
        h_max = Float.neg_infinity;
        h_mu = Mutex.create ();
      }
  in
  match register t ~help ~labels name make with
  | Histogram_i h -> h
  | other ->
    invalid_arg
      (Printf.sprintf "Metrics: %S is already a %s" name (kind_name other))

module Counter = struct
  let add c n =
    if n < 0 then invalid_arg "Metrics.Counter.add: negative amount";
    let rec go () =
      let cur = Atomic.get c.c_value in
      let next = if max_int - cur < n then max_int else cur + n in
      if not (Atomic.compare_and_set c.c_value cur next) then go ()
    in
    go ()

  let incr c = add c 1

  let value c = Atomic.get c.c_value
end

module Gauge = struct
  let set g v = Atomic.set g.g_value v

  let value g = Atomic.get g.g_value
end

(* A consistent read of one histogram: every reader (accessors,
   percentile, both exporters) goes through this snapshot so a
   concurrent observe can never tear count/sum/bucket agreement. *)
type hsnap = {
  s_bounds : float array;
  s_counts : int array;
  s_count : int;
  s_sum : float;
  s_min : float;
  s_max : float;
}

let hsnap h =
  Mutex.protect h.h_mu @@ fun () ->
  {
    s_bounds = h.bounds;
    s_counts = Array.copy h.counts;
    s_count = h.h_count;
    s_sum = h.h_sum;
    s_min = h.h_min;
    s_max = h.h_max;
  }

let percentile_of s q =
  if not (Float.is_finite q) || q < 0.0 || q > 1.0 then
    invalid_arg "Metrics.Histogram.percentile: q outside [0,1]";
  if s.s_count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int s.s_count in
    let n = Array.length s.s_bounds in
    let raw = ref s.s_max in
    let cum = ref 0.0 and found = ref false in
    for i = 0 to n - 1 do
      if not !found then begin
        let c = float_of_int s.s_counts.(i) in
        if !cum +. c >= rank && c > 0.0 then begin
          let lo = if i = 0 then 0.0 else s.s_bounds.(i - 1) in
          let hi = s.s_bounds.(i) in
          let frac = (rank -. !cum) /. c in
          raw := lo +. (frac *. (hi -. lo));
          found := true
        end;
        cum := !cum +. c
      end
    done;
    (* The overflow bucket has no upper bound; fall back to the
       observed maximum, and clamp interpolation into the observed
       range either way. *)
    Float.min s.s_max (Float.max s.s_min !raw)
  end

module Histogram = struct
  let bucket_index h v =
    (* First bucket with v <= bound; binary search over the bounds. *)
    let n = Array.length h.bounds in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe h v =
    let i = bucket_index h v in
    Mutex.protect h.h_mu @@ fun () ->
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v

  let count h = (hsnap h).s_count

  let sum h = (hsnap h).s_sum

  let buckets h =
    let s = hsnap h in
    Array.mapi (fun i b -> (b, s.s_counts.(i))) s.s_bounds

  let overflow h =
    let s = hsnap h in
    s.s_counts.(Array.length s.s_bounds)

  let percentile h q = percentile_of (hsnap h) q
end

(* ------------------------------------------------------------------ *)
(* Exporters.                                                          *)

let snapshot t = Mutex.protect t.t_mu (fun () -> List.rev t.metrics)

let json_labels labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)

let json_of_metric m =
  let base = [ ("name", Json.Str m.name); ("labels", json_labels m.labels) ] in
  let base = if m.help = "" then base else base @ [ ("help", Json.Str m.help) ] in
  match m.inst with
  | Counter_i c -> Json.Obj (base @ [ ("value", Json.Int (Counter.value c)) ])
  | Gauge_i g -> Json.Obj (base @ [ ("value", Json.number (Gauge.value g)) ])
  | Histogram_i h ->
    let s = hsnap h in
    let pct q = if s.s_count = 0 then Json.Null else Json.number (percentile_of s q) in
    Json.Obj
      (base
      @ [
          ("count", Json.Int s.s_count);
          ("sum", Json.number s.s_sum);
          ("min", if s.s_count = 0 then Json.Null else Json.number s.s_min);
          ("max", if s.s_count = 0 then Json.Null else Json.number s.s_max);
          ("p50", pct 0.5);
          ("p90", pct 0.9);
          ("p99", pct 0.99);
          ( "buckets",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i b ->
                      Json.Obj
                        [ ("le", Json.number b); ("count", Json.Int s.s_counts.(i)) ])
                    s.s_bounds)) );
          ("overflow", Json.Int s.s_counts.(Array.length s.s_bounds));
        ])

let to_json t =
  let ms = snapshot t in
  let pick f = List.filter_map f ms in
  Json.to_string
    (Json.Obj
       [
         ( "counters",
           Json.List
             (pick (fun m ->
                  match m.inst with
                  | Counter_i _ -> Some (json_of_metric m)
                  | _ -> None)) );
         ( "gauges",
           Json.List
             (pick (fun m ->
                  match m.inst with Gauge_i _ -> Some (json_of_metric m) | _ -> None))
         );
         ( "histograms",
           Json.List
             (pick (fun m ->
                  match m.inst with
                  | Histogram_i _ -> Some (json_of_metric m)
                  | _ -> None)) );
       ])
  ^ "\n"

let prom_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
           labels)
    ^ "}"

let counters t =
  List.filter_map
    (fun m ->
      match m.inst with
      | Counter_i c -> Some (m.name ^ prom_labels m.labels, Counter.value c)
      | _ -> None)
    (snapshot t)

let prom_float v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.12g" v in
    s

let to_prometheus t =
  let b = Buffer.create 1024 in
  (* The exposition format requires every sample of a metric family to
     appear as one contiguous group under a single # TYPE line, even
     when labelled members were registered interleaved with other
     metrics. Group by name in first-registration order, and take the
     first non-empty help string of the family (the unlabelled member
     usually carries it, but it may be registered after a labelled
     sibling). *)
  let families = Hashtbl.create 16 in
  let order =
    List.fold_left
      (fun order m ->
        match Hashtbl.find_opt families m.name with
        | Some members ->
          members := m :: !members;
          order
        | None ->
          Hashtbl.replace families m.name (ref [ m ]);
          m.name :: order)
      [] (snapshot t)
  in
  let emit_samples m =
    let ls = prom_labels m.labels in
    match m.inst with
    | Counter_i c ->
      Buffer.add_string b (Printf.sprintf "%s%s %d\n" m.name ls (Counter.value c))
    | Gauge_i g ->
      Buffer.add_string b
        (Printf.sprintf "%s%s %s\n" m.name ls (prom_float (Gauge.value g)))
    | Histogram_i h ->
      let s = hsnap h in
      let le bound = prom_labels (m.labels @ [ ("le", bound) ]) in
      let cum = ref 0 in
      Array.iteri
        (fun i bound ->
          cum := !cum + s.s_counts.(i);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket%s %d\n" m.name (le (prom_float bound))
               !cum))
        s.s_bounds;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" m.name (le "+Inf") s.s_count);
      Buffer.add_string b
        (Printf.sprintf "%s_sum%s %s\n" m.name ls (prom_float s.s_sum));
      Buffer.add_string b
        (Printf.sprintf "%s_count%s %d\n" m.name ls s.s_count)
  in
  List.iter
    (fun name ->
      let members = List.rev !(Hashtbl.find families name) in
      let help =
        List.find_map (fun m -> if m.help = "" then None else Some m.help) members
      in
      (match help with
      | Some h ->
        Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name (prom_escape h))
      | None -> ());
      Buffer.add_string b
        (Printf.sprintf "# TYPE %s %s\n" name (kind_name (List.hd members).inst));
      List.iter emit_samples members)
    (List.rev order);
  Buffer.contents b
