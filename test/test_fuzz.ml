(* Robustness fuzzing: hostile inputs must produce [Error]s, never
   exceptions; detectors must keep their temporal invariants on
   arbitrary streams. *)

module Value = Genas_model.Value
module Domain = Genas_model.Domain
module Schema = Genas_model.Schema
module Event = Genas_model.Event
module Lang = Genas_profile.Lang
module Profile = Genas_profile.Profile
module Composite = Genas_ens.Composite
module Codec = Genas_ens.Codec
module Transport = Genas_ens.Transport
module Broker = Genas_ens.Broker
module Journal = Genas_ens.Journal
module Supervise = Genas_ens.Supervise
module Gen = Genas_testlib.Gen

let schema () =
  Schema.create_exn
    [
      ("temp", Domain.float_range ~lo:(-30.0) ~hi:50.0);
      ("count", Domain.int_range ~lo:0 ~hi:100);
      ("site", Domain.enum [ "a"; "b" ]);
      ("flag", Domain.bool_dom);
    ]

(* Arbitrary bytes never crash the profile parser. *)
let prop_parser_totality_random =
  QCheck.Test.make ~name:"parse_profile is total on random strings" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
    (fun src ->
      let s = schema () in
      match Lang.parse_profile s src with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) src)

(* Mutated near-valid sources (token soup from the real alphabet) are
   the harder case for recursive-descent parsers. *)
let token_soup =
  QCheck.Gen.(
    list_size (int_range 0 12)
      (oneofl
         [ "temp"; "count"; "site"; "flag"; ">="; "<="; "="; "!="; "<"; ">";
           "&&"; "and"; "in"; "["; "]"; "("; ")"; "{"; "}"; ","; "5"; "-3.5";
           "true"; "a"; "\"b\""; "1e9"; "nan"; "%" ])
    >|= String.concat " ")

let prop_parser_totality_soup =
  QCheck.Test.make ~name:"parse_profile is total on token soup" ~count:2000
    (QCheck.make token_soup)
    (fun src ->
      let s = schema () in
      match Lang.parse_profile s src with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) src)

let prop_event_parser_totality =
  QCheck.Test.make ~name:"parse_event is total" ~count:2000
    (QCheck.make token_soup)
    (fun src ->
      let s = schema () in
      match Lang.parse_event s src with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) src)

let prop_domain_of_string_totality =
  QCheck.Test.make ~name:"Domain.of_string is total" ~count:1000
    QCheck.(string_of_size (QCheck.Gen.int_range 0 40))
    (fun src ->
      match Domain.of_string src with
      | Ok _ | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) src)

(* Random composite expressions over random time-ordered streams:
   occurrences respect start <= end and window bounds. *)
let expr_gen s =
  let open QCheck.Gen in
  let prim =
    Gen.profile ~dontcare:0.5 s >|= fun p -> Composite.Prim p
  in
  let window = float_range 1.0 50.0 in
  fix
    (fun self depth ->
      if depth = 0 then prim
      else
        frequency
          [
            (2, prim);
            ( 1,
              pair (self (depth - 1)) (pair (self (depth - 1)) window)
              >|= fun (a, (b, w)) -> Composite.Seq (a, b, w) );
            ( 1,
              pair (self (depth - 1)) (pair (self (depth - 1)) window)
              >|= fun (a, (b, w)) -> Composite.Both (a, b, w) );
            ( 1,
              pair (self (depth - 1)) (self (depth - 1)) >|= fun (a, b) ->
              Composite.Either (a, b) );
            ( 1,
              pair (self (depth - 1)) (pair (self (depth - 1)) window)
              >|= fun (a, (b, w)) -> Composite.Without (a, b, w) );
            ( 1,
              pair (self (depth - 1)) (pair (int_range 1 3) window)
              >|= fun (a, (k, w)) -> Composite.Repeat (a, k, w) );
          ])
    2

let prop_composite_stream_invariants =
  QCheck.Test.make ~name:"composite occurrences keep temporal invariants"
    ~count:100
    (QCheck.make
       QCheck.Gen.(
         Gen.schema ~max_attrs:2 () >>= fun s ->
         expr_gen s >>= fun expr ->
         list_size (int_range 1 40) (pair (Gen.event s) (float_range 0.0 5.0))
         >|= fun timed -> (s, expr, timed)))
    (fun (s, expr, timed) ->
      match Composite.compile s expr with
      | Error _ -> true  (* windows are valid by construction, but fine *)
      | Ok det ->
        let clock = ref 0.0 in
        List.for_all
          (fun (e, dt) ->
            clock := !clock +. dt;
            let e =
              Event.create_exn ~time:!clock s (Event.to_alist s e)
            in
            List.for_all
              (fun (o : Composite.occurrence) ->
                o.Composite.start_time <= o.Composite.end_time
                && o.Composite.end_time = !clock
                && o.Composite.events <> [])
              (Composite.feed det e))
          timed)

(* Wire decoding under hostile bytes: valid Publish and Deliver payloads,
   mutated, must decode or raise [Codec.Corrupt] — never anything else
   (an escaping exception crashes the receiving broker). A count
   overwrite tries every offset of the payload, so each string length
   and element count in it is hit. *)
type mutation =
  | Flips of (int * int) list  (* position seed, xor mask in 1..255 *)
  | Overwrite of int  (* hostile 64-bit value, written at every offset *)

let wire_message s =
  QCheck.Gen.(
    let origin = string_size ~gen:printable (int_range 0 12) in
    let ctx = opt (pair nat nat) in
    oneof
      [
        (let* token = nat
         and* origin = origin
         and* events = array_size (int_range 0 4) (Gen.event s)
         and* ctx = ctx in
         return (Transport.Publish { token; origin; events; ctx }));
        (let* cursor = nat
         and* idx = nat
         and* replay = bool
         and* origin = origin
         and* event = Gen.event s
         and* ctx = ctx in
         return
           (Transport.Deliver { cursor; idx; replay; origin; event; ctx }));
      ])

let flips =
  QCheck.Gen.(
    list_size (int_range 1 5) (pair (int_bound 1_000_000) (int_range 1 255)))

let apply_flips payload fl =
  let b = Bytes.of_string payload in
  let len = Bytes.length b in
  List.iter
    (fun (at, mask) ->
      let i = at mod len in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask))
    fl;
  b

let mutation =
  QCheck.Gen.(
    frequency
      [
        (3, flips >|= fun fl -> Flips fl);
        (1, oneofl [ max_int; 1 lsl 40; -1 ] >|= fun v -> Overwrite v);
      ])

let prop_decode_total_under_mutation =
  QCheck.Test.make ~name:"decode_message is total on mutated payloads"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair (wire_message (schema ())) mutation))
    (fun (msg, m) ->
      let s = schema () in
      let payload = Transport.encode_message msg in
      let len = String.length payload in
      let decodes bytes =
        match Transport.decode_message s (Bytes.to_string bytes) with
        | _ | (exception Codec.Corrupt _) -> true
        | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e)
            (Bytes.to_string bytes)
      in
      match m with
      | Flips fl -> decodes (apply_flips payload fl)
      | Overwrite v ->
        List.for_all
          (fun at ->
            let b = Bytes.of_string payload in
            Bytes.set_int64_le b at (Int64.of_int v);
            decodes b)
          (List.init (max 0 (len - 7)) Fun.id))

(* Journal replay decodes untrusted bytes too. One record of a journal
   written by a live broker (subscribes, a composite, publishes with
   retries and dead letters, a dead-letter replay, unsubscribes) gets
   1-5 bytes flipped and is re-framed so its checksum holds: recovery
   must return [Ok] or [Error], never raise or run for a time set by a
   count read from disk. *)
let wal_dir =
  let path = Filename.temp_file "genas_fuzz" ".d" in
  Sys.remove path;
  at_exit (fun () ->
      if Sys.file_exists path then begin
        Array.iter (fun f -> Sys.remove (Filename.concat path f))
          (Sys.readdir path);
        Sys.rmdir path
      end);
  path

let wal_cfg = Journal.config ~fsync:false ~seed:7 wal_dir

let wal_header_len = 16 (* "GWAL001\n" and the 8-byte seed *)

let retry () = Supervise.retry_policy ~max_attempts:2 ~jitter_seed:1 ()

let adaptive =
  { Genas_core.Adaptive.warmup = 4; check_every = 3; drift_threshold = 0.2 }

let journal_records =
  lazy
    (let s = schema () in
     let b = Broker.create ~retry:(retry ()) ~adaptive ~journal:wal_cfg s in
     let sub who src h =
       Result.get_ok (Broker.subscribe_text b ~subscriber:who src h)
     in
     let ok = sub "ok" "count >= 50" ignore in
     ignore (sub "broken" "temp >= 0.0" (fun _ -> failwith "broken"));
     let prim src = Composite.Prim (Result.get_ok (Lang.parse_profile s src)) in
     let seq = Composite.Seq (prim "site = a", prim "flag = true", 25.0) in
     let comp =
       Result.get_ok (Broker.subscribe_composite b ~subscriber:"w" seq ignore)
     in
     for i = 0 to 11 do
       Event.create_exn ~time:(float_of_int (10 * i)) s
         [
           ("temp", Value.Float (float_of_int ((i * 7 mod 16) - 5)));
           ("count", Value.Int (i * 13 mod 101));
           ("site", Value.Str (if i mod 3 = 0 then "a" else "b"));
           ("flag", Value.Bool (i mod 2 = 1));
         ]
       |> Broker.publish b |> ignore
     done;
     ignore (Broker.replay_deadletters b);
     ignore (Broker.unsubscribe b ok);
     ignore (Broker.unsubscribe b comp);
     Broker.close b;
     let wal =
       In_channel.with_open_bin (Filename.concat wal_dir "journal.wal")
         In_channel.input_all
     in
     let seed = wal_cfg.Journal.seed in
     let records, _, _ = Codec.parse_frames ~seed wal ~pos:wal_header_len in
     (String.sub wal 0 wal_header_len, Array.of_list records))

let prop_recover_total_under_mutation =
  QCheck.Test.make ~name:"Broker.recover is total on mutated journal records"
    ~count:300
    (QCheck.make QCheck.Gen.(pair nat flips))
    (fun (k, fl) ->
      let header, records = Lazy.force journal_records in
      let k = k mod Array.length records in
      let frame i r =
        Codec.frame ~seed:wal_cfg.Journal.seed
          (if i = k then Bytes.to_string (apply_flips r fl) else r)
      in
      Out_channel.with_open_bin (Filename.concat wal_dir "journal.wal")
        (fun oc ->
          output_string oc header;
          Array.iteri (fun i r -> output_string oc (frame i r)) records);
      match
        Broker.recover ~retry:(retry ()) ~adaptive ~journal:wal_cfg (schema ())
      with
      | Ok b ->
        Broker.close b;
        true
      | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "record %d: raised %s" k (Printexc.to_string e))

let () =
  Alcotest.run "fuzz"
    [
      ( "parsers",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parser_totality_random; prop_parser_totality_soup;
            prop_event_parser_totality; prop_domain_of_string_totality;
          ] );
      ( "composite",
        List.map QCheck_alcotest.to_alcotest
          [ prop_composite_stream_invariants ] );
      ( "wire",
        List.map QCheck_alcotest.to_alcotest
          [ prop_decode_total_under_mutation ] );
      ( "journal",
        List.map QCheck_alcotest.to_alcotest
          [ prop_recover_total_under_mutation ] );
    ]
