open Fortran_front

type entry = {
  e_oracle : string;
  e_seed : string;
  e_steps : (string * string) list;
  e_program : Ast.program;
}

let magic = "C PED-FUZZ COUNTEREXAMPLE v1"

let render ~oracle ~seed ~steps p =
  let b = Buffer.create 1024 in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b (Printf.sprintf "C oracle: %s\n" oracle);
  Buffer.add_string b (Printf.sprintf "C seed: %s\n" seed);
  List.iter
    (fun (name, args) ->
      Buffer.add_string b (Printf.sprintf "C step: %s %s\n" name args))
    steps;
  Buffer.add_string b (Pretty.program_to_string p);
  Buffer.contents b

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let save ~dir ~oracle ~seed ~steps p =
  mkdir_p dir;
  let content = render ~oracle ~seed ~steps p in
  let name =
    Printf.sprintf "%s-%s.f" oracle
      (String.sub (Digest.to_hex (Digest.string content)) 0 10)
  in
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let prefixed ~prefix line =
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Some (String.trim (String.sub line (String.length prefix)
                            (String.length line - String.length prefix)))
  else None

let load path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error msg -> Error msg
  | content -> (
    let lines = String.split_on_char '\n' content in
    match lines with
    | first :: rest when String.trim first = magic -> (
      let oracle = ref "" and seed = ref "" and steps = ref [] in
      let body =
        let rec go = function
          | line :: rest -> (
            match prefixed ~prefix:"C oracle:" line with
            | Some v ->
              oracle := v;
              go rest
            | None -> (
              match prefixed ~prefix:"C seed:" line with
              | Some v ->
                seed := v;
                go rest
              | None -> (
                match prefixed ~prefix:"C step:" line with
                | Some v ->
                  (match String.index_opt v ' ' with
                  | Some i ->
                    steps :=
                      ( String.sub v 0 i,
                        String.trim
                          (String.sub v (i + 1) (String.length v - i - 1)) )
                      :: !steps
                  | None -> steps := (v, "") :: !steps);
                  go rest
                | None -> line :: rest)))
          | [] -> []
        in
        go rest
      in
      match
        Parser.parse_program ~file:(Filename.basename path)
          (String.concat "\n" body)
      with
      | exception e ->
        Error
          (Printf.sprintf "%s: does not parse: %s" path (Printexc.to_string e))
      | p ->
        if !oracle = "" then Error (path ^ ": missing 'C oracle:' line")
        else
          Ok
            {
              e_oracle = !oracle;
              e_seed = !seed;
              e_steps = List.rev !steps;
              e_program = p;
            })
    | _ -> Error (path ^ ": not a PED-FUZZ counterexample file"))

let files dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".f")
    |> List.sort String.compare
    |> List.map (Filename.concat dir)
  else []

let replay (e : entry) : (unit, string) result =
  match e.e_oracle with
  | "dependence" -> (
    match Depcheck.check_main e.e_program with
    | { misses = []; _ } -> Ok ()
    | { misses; _ } ->
      Error
        (String.concat "; " (List.map Depcheck.miss_to_string misses)))
  | "semantics" ->
    if e.e_steps = [] then (
      match Semcheck.check_instances e.e_program with
      | _, [] -> Ok ()
      | _, fs ->
        Error (String.concat "; " (List.map Semcheck.failure_to_string fs)))
    else Semcheck.replay_steps e.e_program e.e_steps
  | "runtime" -> (
    match Runcheck.check e.e_program with
    | { failures = []; _ } -> Ok ()
    | { failures; _ } ->
      Error (String.concat "; " (List.map Runcheck.failure_to_string failures)))
  | "codegen" -> (
    (* a skip (subset/toolchain) is a pass: the recorded divergence
       can no longer be reproduced on this host *)
    match Cgcheck.check e.e_program with
    | { Cgcheck.failures = []; _ } -> Ok ()
    | { Cgcheck.failures; _ } ->
      Error (String.concat "; " (List.map Runcheck.failure_to_string failures)))
  | other -> Error (Printf.sprintf "unknown oracle %S" other)
