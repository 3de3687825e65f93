(* Host-side probes: the benchmark's own clock, allocation counter,
   /proc readers, and a fixed-memory latency histogram. *)

(* CLOCK_MONOTONIC read through the stub the bechamel library links,
   declared unboxed so a read allocates nothing and costs one vDSO
   call. The same source backs Genas_obs.Clock by default, but the
   benchmark reads it directly: a later change to the program's clock
   cannot move the ruler. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

let seconds_since t0 = float_of_int (now () - t0) /. 1e9

let words () = Gc.minor_words ()

(* Median cost in ns of one call of [f], over [reps] batches of 1000. *)
let call_cost_ns ?(reps = 21) f =
  let a =
    Array.init reps (fun _ ->
        let t0 = now () in
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (f ()))
        done;
        float_of_int (now () - t0) /. 1000.0)
  in
  Array.sort compare a;
  a.(reps / 2)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* {1 /proc} *)

(* /proc files report length 0; read them line by line instead. *)
let proc_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* A "Key: value ..." field of a /proc file, as an integer. *)
let proc_field path key =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = key ->
        String.sub l (i + 1) (String.length l - i - 1)
        |> String.trim |> String.split_on_char ' ' |> List.hd |> int_of_string_opt
      | _ -> None)
    (proc_lines path)
  |> Option.value ~default:(-1)

let io_counts () = (proc_field "/proc/self/io" "syscr", proc_field "/proc/self/io" "syscw")

(* Read and write syscalls made by this process while [f ()] ran, less
   those of reading the counters. *)
let syscalls_during f =
  let r0, w0 = io_counts () in
  let r1, w1 = io_counts () in
  f ();
  let r2, w2 = io_counts () in
  (r2 - r1 - (r1 - r0), w2 - w1 - (w1 - w0))

let threads () = proc_field "/proc/self/status" "Threads"

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let nproc () =
  List.length
    (List.filter
       (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
       (proc_lines "/proc/cpuinfo"))

(* {1 Latency histogram}

   Log-linear buckets over nanoseconds: exact below 64 ns, then 64
   sub-buckets per power of two (under 1.6% relative error). Recording
   allocates nothing, so a run of any length fits in a fixed array. *)

type hist = { counts : int array; mutable total : int }

let sub_bits = 6

let buckets = (64 - sub_bits) lsl sub_bits

let hist () = { counts = Array.make buckets 0; total = 0 }

let bucket v =
  if v < 1 lsl sub_bits then max 0 v
  else begin
    let msb = ref sub_bits in
    while v lsr (!msb + 1) > 0 do
      incr msb
    done;
    let sub = (v lsr (!msb - sub_bits)) land ((1 lsl sub_bits) - 1) in
    ((!msb - sub_bits + 1) lsl sub_bits) + sub
  end

(* Lowest value of a bucket, in ns. *)
let bucket_lo b =
  if b < 1 lsl sub_bits then float_of_int b
  else begin
    let e = (b lsr sub_bits) - 1 and sub = b land ((1 lsl sub_bits) - 1) in
    float_of_int (((1 lsl sub_bits) + sub) lsl e)
  end

let record h ns =
  let b = bucket ns in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

(* The [p]-th percentile in µs, interpolated linearly within its
   bucket, with the number of samples in higher buckets. *)
let percentile h p =
  if h.total = 0 then (nan, 0)
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.total))) in
    let acc = ref 0 and b = ref 0 in
    while !acc + h.counts.(!b) < rank do
      acc := !acc + h.counts.(!b);
      incr b
    done;
    let lo = bucket_lo !b and hi = bucket_lo (!b + 1) in
    let frac = (float_of_int (rank - !acc) -. 0.5) /. float_of_int h.counts.(!b) in
    let beyond = h.total - (!acc + h.counts.(!b)) in
    ((lo +. (frac *. (hi -. lo))) /. 1000.0, beyond)
  end

let clear h =
  Array.fill h.counts 0 (Array.length h.counts) 0;
  h.total <- 0

(* Add the samples of [src] to [dst]. *)
let add_into dst src =
  Array.iteri (fun b c -> dst.counts.(b) <- dst.counts.(b) + c) src.counts;
  dst.total <- dst.total + src.total
