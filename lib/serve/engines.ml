module Catalog = Tats_techlib.Catalog
module Platform = Tats_techlib.Platform
module Flow = Tats_cosynth.Flow
module Hotspot = Tats_thermal.Hotspot
module Inquiry = Tats_thermal.Inquiry

type t = {
  mutex : Mutex.t;
  table : (string, Hotspot.t) Hashtbl.t;
}

let create () = { mutex = Mutex.create (); table = Hashtbl.create 8 }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* The registry's one builder: the facade Flow.run_platform would build
   for [platform] (grid floorplan, default package), so requests served
   through the registry produce the same floats as a one-shot CLI run
   that builds its own. *)
let facade t ~key platform =
  with_lock t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some h -> h
  | None ->
      let h = Flow.platform_facade platform in
      Hashtbl.add t.table key h;
      h

let platform t ~n_pes =
  if n_pes < 1 then invalid_arg "Engines.platform: need at least one PE";
  facade t
    ~key:(Printf.sprintf "platform:%d" n_pes)
    (Catalog.std_platform n_pes)

(* Builtin platforms are immutable, so the name identifies the geometry. *)
let typed_platform t platform =
  facade t
    ~key:(Printf.sprintf "platform-name:%s" (Platform.name platform))
    platform

let count t = with_lock t @@ fun () -> Hashtbl.length t.table

let fingerprints t =
  with_lock t @@ fun () ->
  Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort compare

type stats = { engines : int; inquiries : int; cache_hits : int }

let stats t =
  let hotspots = with_lock t @@ fun () ->
    Hashtbl.fold (fun _ h acc -> h :: acc) t.table []
  in
  List.fold_left
    (fun acc h ->
      let s = Hotspot.inquiry_stats h in
      {
        acc with
        inquiries = acc.inquiries + s.Inquiry.inquiries;
        cache_hits = acc.cache_hits + s.Inquiry.cache_hits;
      })
    { engines = List.length hotspots; inquiries = 0; cache_hits = 0 }
    hotspots

let hit_rate s =
  if s.inquiries = 0 then 0.0
  else float_of_int s.cache_hits /. float_of_int s.inquiries
