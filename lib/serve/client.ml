(* Loopback HTTP client for tests and the serve-deadline benchmark.

   Deliberately small: one request per connection ([Connection:
   close]), the response is read to EOF. The [slow_write_delay_s]
   knob dribbles the request out a few bytes at a time — the
   slow-loris emulation the server's read budget must defeat. *)

type response = {
  status : int;
  headers : (string * string) list;  (* names lowercased *)
  body : string;
}

let header name r = Http.header name r.headers

let sock_timeout fd timeout_s =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Dribble [s] out [burst] bytes at a time with a pause between
   writes; used only when emulating a misbehaving peer. *)
let write_slow fd s ~delay_s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let burst = 16 in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (min burst (n - off)) in
      Thread.delay delay_s;
      go (off + w)
    end
  in
  go 0

let read_to_eof fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents acc
    | n ->
      Buffer.add_subbytes acc buf 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> Buffer.contents acc
  in
  go ()

let parse_response text =
  match Http.header_end text with
  | None -> Error "no header terminator in response"
  | Some (eoh, body_start) -> (
    let block = String.sub text 0 eoh in
    match Http.split_lines block with
    | [] -> Error "empty response"
    | status_line :: header_lines -> (
      match String.split_on_char ' ' status_line with
      | _http :: code :: _ -> (
        match int_of_string_opt code with
        | None -> Error (Printf.sprintf "bad status line %S" status_line)
        | Some status ->
          let headers =
            List.filter_map
              (fun l -> match Http.parse_header l with Ok h -> Some h | Error _ -> None)
              header_lines
          in
          let body = String.sub text body_start (String.length text - body_start) in
          Ok { status; headers; body })
      | _ -> Error (Printf.sprintf "bad status line %S" status_line)))

let request ?(meth = "POST") ?(headers = []) ?(body = "") ?(timeout_s = 30.0)
    ?(slow_write_delay_s = 0.0) ~host ~port path =
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> Error (Printf.sprintf "cannot resolve %s:%d" host port)
  | ai :: _ -> (
    let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        match
          sock_timeout fd timeout_s;
          Unix.connect fd ai.Unix.ai_addr
        with
        | () ->
          let b = Buffer.create (String.length body + 256) in
          Printf.bprintf b "%s %s HTTP/1.1\r\n" meth path;
          Printf.bprintf b "Host: %s:%d\r\n" host port;
          Printf.bprintf b "Content-Length: %d\r\n" (String.length body);
          List.iter (fun (k, v) -> Printf.bprintf b "%s: %s\r\n" k v) headers;
          Buffer.add_string b "Connection: close\r\n\r\n";
          Buffer.add_string b body;
          let text = Buffer.contents b in
          (try
             if slow_write_delay_s > 0.0 then write_slow fd text ~delay_s:slow_write_delay_s
             else write_all fd text
           with Unix.Unix_error (_, _, _) ->
             (* The server may legitimately cut us off mid-write (shed,
                timeout); whatever response it managed to send is still
                worth reading. *)
             ());
          parse_response (read_to_eof fd)
        | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))))
