(* Cross-domain span tracing in Chrome trace-event JSON (loadable in
   Perfetto / chrome://tracing).  Every span carries an id, its parent's
   id, and a timestamp on the process-wide shared Epoch, so spans emitted
   by different portfolio domains land on one consistent timeline — one
   track ("tid") per solver context.

   The file is a streamed JSON array of event objects, one per line:

     [
     {"name":"lower_bound","cat":"phase","ph":"B","ts":1234.5,"pid":7,"tid":1,
      "args":{"id":42,"parent":41}},
     {"ph":"E","ts":1301.0,"pid":7,"tid":1,"args":{"id":42}}
     ]

   [ts] is microseconds since Epoch.t0.  A crash loses at most the
   closing bracket, which the inspect loader repairs.  Like Recorder, a
   disabled sink costs one branch per call site; an enabled sink
   serializes writers with a mutex (per-track begin/end stacks live
   under the same lock). *)

type sink = {
  oc : out_channel;
  owned : bool;
  buf : Buffer.t;
  lock : Mutex.t;
  pid : int;
  mutable first : bool;  (* no comma before the first event *)
  mutable nevents : int;
  mutable dropped : int;  (* events beyond [max_events] *)
  max_events : int;
  next_id : int Atomic.t;
  open_spans : (int, (int * string) list) Hashtbl.t;  (* per track: open (id, name) *)
}

type t = { mutable sink : sink option }
type span = {
  sp_id : int;
  sp_track : int;
  sp_name : string;
}

let disabled () = { sink = None }
let default_max_events = 1_000_000

let of_channel ?(owned = false) ?(max_events = default_max_events) oc =
  {
    sink =
      Some
        {
          oc;
          owned;
          buf = Buffer.create 256;
          lock = Mutex.create ();
          pid = Unix.getpid ();
          first = true;
          nevents = 0;
          dropped = 0;
          max_events;
          next_id = Atomic.make 1;
          open_spans = Hashtbl.create 8;
        };
  }

let open_file ?max_events path =
  let oc = open_out path in
  output_string oc "[\n";
  of_channel ~owned:true ?max_events oc

let enabled t = t.sink <> None
let events t = match t.sink with None -> 0 | Some s -> s.nevents
let dropped t = match t.sink with None -> 0 | Some s -> s.dropped

(* One raw event under the lock.  The caller formats [fields] (everything
   after the leading "{"); the comma discipline and the line breaks live
   here.  Returns false when the event cap dropped it. *)
let emit ?(capped = true) s fields =
  if capped && s.nevents >= s.max_events then begin
    s.dropped <- s.dropped + 1;
    false
  end
  else begin
    Buffer.clear s.buf;
    if s.first then s.first <- false else Buffer.add_string s.buf ",\n";
    Buffer.add_char s.buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char s.buf ',';
        Json.escape_to s.buf k;
        Buffer.add_char s.buf ':';
        Json.to_buffer s.buf v)
      fields;
    Buffer.add_char s.buf '}';
    Buffer.output_buffer s.oc s.buf;
    s.nevents <- s.nevents + 1;
    if s.nevents land 63 = 0 then Stdlib.flush s.oc;
    true
  end

let ts_us () = Epoch.now () *. 1e6

let meta t ~name fields =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    ignore
      (emit s
         [
           "ph", Json.String "M";
           "name", Json.String name;
           "pid", Json.Int s.pid;
           "tid", Json.Int 0;
           "args", Json.Obj fields;
         ]);
    Mutex.unlock s.lock

let header t ~run_id ~started =
  meta t ~name:"bsolo_run"
    [
      "schema", Json.String "bsolo-spans/1";
      "run_id", Json.String run_id;
      "started", Json.Float started;
      "epoch", Json.Float (Epoch.t0 ());
    ];
  meta t ~name:"process_name" [ "name", Json.String "bsolo" ]

let name_track t ~track name =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    ignore
      (emit s
         [
           "ph", Json.String "M";
           "name", Json.String "thread_name";
           "pid", Json.Int s.pid;
           "tid", Json.Int track;
           "args", Json.Obj [ "name", Json.String name ];
         ]);
    Mutex.unlock s.lock

let null_span = { sp_id = 0; sp_track = 0; sp_name = "" }

let begin_ ?(cat = "phase") t ~track name =
  match t.sink with
  | None -> null_span
  | Some s ->
    let id = Atomic.fetch_and_add s.next_id 1 in
    Mutex.lock s.lock;
    let stack = Option.value ~default:[] (Hashtbl.find_opt s.open_spans track) in
    let parent = match stack with (p, _) :: _ -> p | [] -> 0 in
    let written =
      emit s
        [
          "name", Json.String name;
          "cat", Json.String cat;
          "ph", Json.String "B";
          "ts", Json.Float (ts_us ());
          "pid", Json.Int s.pid;
          "tid", Json.Int track;
          ( "args",
            Json.Obj
              ([ "id", Json.Int id ] @ if parent <> 0 then [ "parent", Json.Int parent ] else [])
          );
        ]
    in
    (* A span whose B fell to the event cap gets no E either (the caller
       holds [null_span]), so the file's per-track nesting stays valid. *)
    if written then Hashtbl.replace s.open_spans track ((id, name) :: stack);
    Mutex.unlock s.lock;
    if written then { sp_id = id; sp_track = track; sp_name = name } else null_span

let end_ t span =
  match t.sink with
  | None -> ()
  | Some s when span.sp_id = 0 -> ignore s
  | Some s ->
    Mutex.lock s.lock;
    (* Close (emit E for) any inner spans still open on the track — an
       exception that skipped their end_ calls must not corrupt the
       file's nesting — then close this span.  Uncapped: a B that made
       it into the file is always matched. *)
    let close_one (id, name) =
      ignore
        (emit ~capped:false s
           [
             "name", Json.String name;
             "ph", Json.String "E";
             "ts", Json.Float (ts_us ());
             "pid", Json.Int s.pid;
             "tid", Json.Int span.sp_track;
             "args", Json.Obj [ "id", Json.Int id ];
           ])
    in
    (match Hashtbl.find_opt s.open_spans span.sp_track with
    | Some stack when List.mem_assoc span.sp_id stack ->
      let rec pop = function
        | (id, name) :: rest when id <> span.sp_id ->
          close_one (id, name);
          pop rest
        | _ :: rest -> rest
        | [] -> []
      in
      Hashtbl.replace s.open_spans span.sp_track (pop stack);
      close_one (span.sp_id, span.sp_name)
    | Some _ | None ->
      (* Unknown (already closed) span: emit nothing rather than a
         dangling E. *)
      ());
    Mutex.unlock s.lock

let with_span ?cat t ~track name f =
  match t.sink with
  | None -> f ()
  | Some _ ->
    let sp = begin_ ?cat t ~track name in
    Fun.protect ~finally:(fun () -> end_ t sp) f

(* Complete ("X") event: a span whose duration was measured by the
   caller, e.g. a proof-sink flush timed inside the proof library. *)
let complete ?(cat = "io") t ~track ~name ~start ~dur =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    ignore
      (emit s
         [
           "name", Json.String name;
           "cat", Json.String cat;
           "ph", Json.String "X";
           "ts", Json.Float (start *. 1e6);
           "dur", Json.Float (dur *. 1e6);
           "pid", Json.Int s.pid;
           "tid", Json.Int track;
         ]);
    Mutex.unlock s.lock

let instant ?(cat = "mark") t ~track name fields =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    ignore
      (emit s
         [
           "name", Json.String name;
           "cat", Json.String cat;
           "ph", Json.String "i";
           "s", Json.String "t";
           "ts", Json.Float (ts_us ());
           "pid", Json.Int s.pid;
           "tid", Json.Int track;
           "args", Json.Obj fields;
         ]);
    Mutex.unlock s.lock

let flush t =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    Stdlib.flush s.oc;
    Mutex.unlock s.lock

let close t =
  match t.sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.lock;
    if s.dropped > 0 then
      ignore
        (emit ~capped:false s
           [
             "ph", Json.String "M";
             "name", Json.String "bsolo_dropped_events";
             "pid", Json.Int s.pid;
             "tid", Json.Int 0;
             "args", Json.Obj [ "dropped", Json.Int s.dropped ];
           ]);
    output_string s.oc "\n]\n";
    Stdlib.flush s.oc;
    if s.owned then close_out s.oc;
    Mutex.unlock s.lock;
    t.sink <- None
