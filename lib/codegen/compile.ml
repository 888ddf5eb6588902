type error =
  | Unsupported of string
  | Toolchain of string
  | Failed of string

let error_to_string = function
  | Unsupported m -> "unsupported: " ^ m
  | Toolchain m -> "toolchain: " ^ m
  | Failed m -> "failed: " ^ m

type built = {
  entry : Registry.entry;
  module_name : string;
  src_file : string;
  ir_stmts : int;
}

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

let lower ?telemetry prog =
  let sink = match telemetry with Some s -> s | None -> Telemetry.default () in
  Telemetry.span sink "codegen.lower" (fun () ->
      match Lower.program prog with
      | Ok ir -> Ok ir
      | Error m -> Error (Unsupported m))

let generate prog =
  let* ir = lower prog in
  Ok (Ocaml_backend.emit ir)

let gen_counter = Atomic.make 0

let mkdir_p dir =
  let rec mk d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir

let read_file_tail file =
  try
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let keep = min n 2000 in
    seek_in ic (n - keep);
    let s = really_input_string ic keep in
    close_in ic;
    String.trim s
  with Sys_error _ | End_of_file -> "(no compiler output captured)"

let remove_if_exists f = try Sys.remove f with Sys_error _ -> ()

let scratch_files base =
  List.map
    (fun ext -> base ^ ext)
    [ ".ml"; ".cmxs"; ".cmx"; ".cmi"; ".o"; ".log" ]

let build ?telemetry ?(dir = ".ped-codegen") ?(keep = false) prog =
  let sink = match telemetry with Some s -> s | None -> Telemetry.default () in
  let* ir = lower ~telemetry:sink prog in
  let src =
    Telemetry.span sink "codegen.emit" (fun () -> Ocaml_backend.emit ir)
  in
  let* tc =
    match Toolchain.find () with Ok t -> Ok t | Error m -> Error (Toolchain m)
  in
  let digest = String.sub (Digest.to_hex (Digest.string src)) 0 8 in
  let module_name =
    Printf.sprintf "ped_gen_%d_%d_%s" (Unix.getpid ())
      (Atomic.fetch_and_add gen_counter 1)
      digest
  in
  (try mkdir_p dir with Unix.Unix_error (_, _, _) -> ());
  let base = Filename.concat dir module_name in
  let src_file = base ^ ".ml" in
  let cmxs = base ^ ".cmxs" in
  let log = base ^ ".log" in
  let write_src () =
    let oc = open_out src_file in
    output_string oc src;
    close_out oc
  in
  let* () =
    try Ok (write_src ())
    with Sys_error m -> Error (Failed ("cannot write generated source: " ^ m))
  in
  let cmd =
    String.concat " "
      (List.map Filename.quote tc.Toolchain.compiler
      @ [ "-shared"; "-w"; "-a" ]
      @ List.concat_map
          (fun d -> [ "-I"; Filename.quote d ])
          tc.Toolchain.incdirs
      @ [ "-o"; Filename.quote cmxs; Filename.quote src_file ]
      @ [ ">"; Filename.quote log; "2>&1" ])
  in
  let rc =
    Telemetry.span sink "codegen.compile"
      ~args:[ ("module", module_name) ]
      (fun () -> Sys.command cmd)
  in
  let* () =
    if rc = 0 then Ok ()
    else begin
      let tail = read_file_tail log in
      if not keep then List.iter remove_if_exists (scratch_files base);
      Error
        (Failed
           (Printf.sprintf "ocamlopt exited with %d on %s:\n%s" rc module_name
              tail))
    end
  in
  let* entry =
    Telemetry.span sink "codegen.load" (fun () ->
        try
          Dynlink.loadfile_private cmxs;
          match Registry.take () with
          | Some e -> Ok e
          | None ->
            Error (Failed "loaded plugin did not register an entry point")
        with
        | Dynlink.Error e -> Error (Failed (Dynlink.error_message e))
        | Sys_error m -> Error (Failed m))
  in
  if not keep then List.iter remove_if_exists (scratch_files base);
  Ok { entry; module_name; src_file; ir_stmts = Ir.count_stmts ir.Ir.p_units }

type run_result = {
  out_lines : string list;
  store : (string * float list) list;
  wall_s : float;
}

let run ?telemetry built ~pool ~schedule =
  let sink = match telemetry with Some s -> s | None -> Telemetry.default () in
  Telemetry.span sink "codegen.run"
    ~args:[ ("module", built.module_name) ]
    (fun () ->
      let t0 = Telemetry.now_ns () in
      match built.entry.Registry.run ~pool ~schedule with
      | out ->
        let t1 = Telemetry.now_ns () in
        Ok
          {
            out_lines = out.Registry.out_lines;
            store = Sim.Abi.sort_store out.Registry.store;
            wall_s = Int64.to_float (Int64.sub t1 t0) /. 1e9;
          }
      | exception Failure m -> Error (Failed ("runtime error: " ^ m))
      | exception e ->
        Error (Failed ("runtime error: " ^ Printexc.to_string e)))
