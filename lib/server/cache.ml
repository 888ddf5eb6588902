open Dependence

(* Summaries and unit results share one keyed store under one byte
   budget; the namespace prefix keeps an (improbable) summary/unit
   fingerprint collision from aliasing. *)
type value =
  | Summary of Interproc.Summary.t
  | Unit_result of Depenv.t * Ddg.t
  | Blob of string

type entry = { value : value; size : int; mutable tick : int }

type t = {
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  buckets : Ddg.cache;
  budget_bytes : int;
  mutable clock : int;
  mutable bytes : int;
  c_hits : Telemetry.counter;
  c_misses : Telemetry.counter;
  c_insertions : Telemetry.counter;
  c_evictions : Telemetry.counter;
}

let create ?telemetry ?(budget_mb = 256) () : t =
  if budget_mb < 1 then invalid_arg "Cache.create: budget_mb must be >= 1";
  let sink =
    match telemetry with Some s -> s | None -> Telemetry.make ()
  in
  let c = Telemetry.counter sink in
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    buckets = Ddg.make_cache ();
    budget_bytes = budget_mb * 1024 * 1024;
    clock = 0;
    bytes = 0;
    c_hits = c "server.cache.hits";
    c_misses = c "server.cache.misses";
    c_insertions = c "server.cache.insertions";
    c_evictions = c "server.cache.evictions";
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Estimated size of everything the value keeps alive.  Entries that
   share structure (two results over one AST) are double-counted —
   the cache under-uses its budget rather than overrunning it. *)
let sizeof (v : value) : int =
  Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)

let evict_over_budget t =
  while t.bytes > t.budget_bytes && Hashtbl.length t.table > 0 do
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, oldest) when oldest.tick <= e.tick -> acc
          | _ -> Some (key, e))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (key, e) ->
      Hashtbl.remove t.table key;
      t.bytes <- t.bytes - e.size;
      Telemetry.incr t.c_evictions
  done

let find t key : value option =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e ->
    t.clock <- t.clock + 1;
    e.tick <- t.clock;
    Telemetry.incr t.c_hits;
    Some e.value
  | None ->
    Telemetry.incr t.c_misses;
    None

(* First writer wins: under interleaving two sessions may race to
   publish the same fingerprint, and both computed the same thing. *)
let add t key (v : value) : unit =
  locked t @@ fun () ->
  if not (Hashtbl.mem t.table key) then begin
    let size = sizeof v in
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table key { value = v; size; tick = t.clock };
    t.bytes <- t.bytes + size;
    Telemetry.incr t.c_insertions;
    evict_over_budget t
  end

let summary_key fp = "summary:" ^ fp
let unit_key fp = "unit:" ^ fp
let blob_key k = "blob:" ^ k

let sharing t : Engine.sharing =
  {
    Engine.sh_find_summary =
      (fun fp ->
        match find t (summary_key fp) with
        | Some (Summary s) -> Some s
        | _ -> None);
    sh_add_summary = (fun fp s -> add t (summary_key fp) (Summary s));
    sh_find_unit =
      (fun fp ->
        match find t (unit_key fp) with
        | Some (Unit_result (env, ddg)) -> Some (env, ddg)
        | _ -> None);
    sh_add_unit = (fun fp (env, ddg) -> add t (unit_key fp) (Unit_result (env, ddg)));
    sh_ddg_cache = Some t.buckets;
  }

let ddg_cache t = t.buckets
let add_blob t key s = add t (blob_key key) (Blob s)

let find_blob t key =
  match find t (blob_key key) with Some (Blob s) -> Some s | _ -> None

(* ---- statistics ---- *)

type stats = {
  entries : int;
  bytes : int;
  budget_bytes : int;
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  bucket_entries : int;
}

let stats t : stats =
  locked t @@ fun () ->
  {
    entries = Hashtbl.length t.table;
    bytes = t.bytes;
    budget_bytes = t.budget_bytes;
    hits = Telemetry.value t.c_hits;
    misses = Telemetry.value t.c_misses;
    insertions = Telemetry.value t.c_insertions;
    evictions = Telemetry.value t.c_evictions;
    bucket_entries = Ddg.cache_entries t.buckets;
  }

let hit_rate (s : stats) : float =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let report t =
  let s = stats t in
  String.concat "\n"
    [
      Printf.sprintf "shared cache: %d entries, %d KiB of %d KiB budget"
        s.entries (s.bytes / 1024) (s.budget_bytes / 1024);
      Printf.sprintf "  lookups : %d hits, %d misses (%.0f%% hit rate)" s.hits
        s.misses (100. *. hit_rate s);
      Printf.sprintf "  churn   : %d insertions, %d evictions" s.insertions
        s.evictions;
      Printf.sprintf "  ddg memo: %d buckets" s.bucket_entries;
    ]

(* ---- persistence ---- *)

(* Bump when the on-disk layout changes.  The compiler version is
   folded in because the payload is the runtime's serialisation of the
   memo table ({!Ddg.export_cache}).  Version 2 added the payload's
   MD5 line: unmarshalling trusts its input, so a damaged payload must
   be refused before it is read.  Version 3 keys
   buckets by unshared bytes, so version 2 keys can never hit.
   Version 4 keys buckets on what their tests read, with no statement
   ids, and stores them with bucket-local statement indices.  Version
   5 writes the keys' config and assertions through the location-free
   program encoder, so version 4 keys can never hit. *)
let format_version = "5"

let version_fingerprint () =
  Digest.to_hex
    (Digest.string ("pedcache|" ^ format_version ^ "|" ^ Sys.ocaml_version))

let magic = "PEDCACHE1"
let cache_file ~dir = Filename.concat dir "ddg-buckets.pedcache"

let save t ~dir : (int, string) result =
  match
    let payload = locked t (fun () -> Ddg.export_cache t.buckets) in
    let count = Ddg.cache_entries t.buckets in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let file = cache_file ~dir in
    Out_channel.with_open_bin file (fun oc ->
        Out_channel.output_string oc (magic ^ "\n");
        Out_channel.output_string oc (version_fingerprint () ^ "\n");
        Out_channel.output_string oc
          (Digest.to_hex (Digest.string payload) ^ "\n");
        Out_channel.output_string oc payload);
    count
  with
  | count -> Ok count
  | exception Sys_error e -> Error e

let load t ~dir : (int, string) result =
  let file = cache_file ~dir in
  if not (Sys.file_exists file) then Ok 0
  else
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error e -> Error e
    | raw -> (
      match String.split_on_char '\n' raw with
      | m :: _ when m <> magic ->
        Error (Printf.sprintf "%s: not a ped cache file" file)
      | _ :: fp :: _ when fp <> version_fingerprint () ->
        Error
          (Printf.sprintf
             "%s: format fingerprint %s does not match this binary's %s; \
              cache rejected"
             file fp
             (version_fingerprint ()))
      | _ :: fp :: sum :: _ -> (
        let header =
          String.length magic + String.length fp + String.length sum + 3
        in
        let payload = String.sub raw header (String.length raw - header) in
        let corrupt = Error (Printf.sprintf "%s: corrupt payload" file) in
        if sum <> Digest.to_hex (Digest.string payload) then corrupt
        else
          match
            locked t (fun () -> Ddg.import_cache payload ~into:t.buckets)
          with
          | added -> Ok added
          | exception _ -> corrupt)
      | _ -> Error (Printf.sprintf "%s: truncated header" file))
