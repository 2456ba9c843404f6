(* The observation boundary and the receive path of the runtime.

   - A golden program touches every traced entry point of P2p,
     Collectives, Win and Persist plus one user region, and pins the exact
     ordered span list (rank, op, category, communicator, sequence number)
     and the PMPI profile.
   - The payload-landing matrix drives every receive flavour against
     dense and sparse payloads that fit, truncate or mismatch the
     datatype, with the message arriving before or after the receive is
     posted, and checks status, exception and Light-level diagnostic.
   - A rank killed while parked in a blocking probe is not reported as
     blocked by the deadlock diagnosis. *)

module Mpi = Mpisim.Mpi
module Comm = Mpisim.Comm
module P = Mpisim.P2p
module C = Mpisim.Collectives
module D = Mpisim.Datatype
module Req = Mpisim.Request
module Persist = Mpisim.Persist
module Win = Mpisim.Win
module Errors = Mpisim.Errors
module Ck = Mpisim.Checker
module Op = Mpisim.Op

(* ------------------------------------------------------------------ *)
(* Golden spans and profile                                            *)
(* ------------------------------------------------------------------ *)

let golden_program comm =
  let r = Comm.rank comm in
  let peer = 1 - r in
  let buf = Array.make 4 r and out = Array.make 4 0 in
  (* blocking, synchronous and non-blocking point-to-point *)
  if r = 0 then begin
    P.send comm D.int buf ~dst:1 ~tag:1;
    ignore (Req.wait (P.isend comm D.int buf ~dst:1 ~tag:2));
    ignore (Req.wait (P.issend comm D.int buf ~dst:1 ~tag:3))
  end
  else begin
    ignore (P.probe comm ~src:0 ~tag:1);
    ignore (P.recv comm D.int out ~src:0 ~tag:1);
    ignore (Req.wait (P.irecv comm D.int out ~src:0 ~tag:2));
    ignore (P.iprobe comm ~src:0 ~tag:3);
    ignore (P.recv comm D.int out ~src:0 ~tag:3)
  end;
  ignore (P.sendrecv comm D.int ~send:buf ~dst:peer ~stag:4 ~recv:out ~src:peer ~rtag:4 ());
  ignore (P.sendrecv_replace comm D.int (Array.copy buf) ~dst:peer ~stag:5 ~src:peer ~rtag:5);
  (* sparse large-count transfers *)
  if r = 0 then P.send_sparse comm D.int ~count:1000 ~dst:1 ~tag:6
  else ignore (P.recv_sparse comm D.int ~capacity:1000 ~src:0 ~tag:6);
  (* persistent point-to-point *)
  let h =
    if r = 0 then P.send_init comm D.int buf ~dst:1 ~tag:7
    else P.recv_init comm D.int out ~src:0 ~tag:7
  in
  Persist.start h;
  ignore (Persist.wait h);
  Persist.free h;
  let h =
    if r = 0 then P.ssend_init comm D.int buf ~dst:1 ~tag:8
    else P.recv_init comm D.int out ~src:0 ~tag:8
  in
  Persist.start h;
  ignore (Persist.wait h);
  Persist.free h;
  (* partitioned *)
  let h =
    if r = 0 then P.psend_init comm D.int buf ~partitions:2 ~count:2 ~dst:1 ~tag:9
    else P.precv_init comm D.int out ~partitions:2 ~count:2 ~src:0 ~tag:9
  in
  Persist.start h;
  if r = 0 then begin
    Persist.pready h 0;
    Persist.pready h 1
  end;
  ignore (Persist.wait h);
  Persist.free h;
  (* blocking collectives *)
  let two = Array.make 2 0 and eight = Array.make 8 0 in
  C.barrier comm;
  C.bcast comm D.int buf ~root:0;
  C.reduce ~recvbuf:out comm D.int Op.int_sum ~sendbuf:buf ~count:4 ~root:0;
  C.allreduce comm D.int Op.int_sum ~sendbuf:buf ~recvbuf:out ~count:4;
  C.allgather comm D.int ~sendbuf:buf ~recvbuf:eight ~count:4;
  C.allgatherv comm D.int ~sendbuf:buf ~scount:4 ~recvbuf:eight ~rcounts:[| 4; 4 |]
    ~rdispls:[| 0; 4 |];
  C.gather ~recvbuf:eight comm D.int ~sendbuf:buf ~count:4 ~root:0;
  C.gatherv ~recvbuf:eight ~rcounts:[| 4; 4 |] ~rdispls:[| 0; 4 |] comm D.int ~sendbuf:buf
    ~scount:4 ~root:0;
  C.scatter ~sendbuf:eight comm D.int ~recvbuf:out ~count:4 ~root:0;
  C.scatterv ~sendbuf:eight ~scounts:[| 4; 4 |] ~sdispls:[| 0; 4 |] comm D.int ~recvbuf:out
    ~rcount:4 ~root:0;
  C.alltoall comm D.int ~sendbuf:buf ~recvbuf:out ~count:2;
  C.alltoallv comm D.int ~sendbuf:buf ~scounts:[| 2; 2 |] ~sdispls:[| 0; 2 |] ~recvbuf:out
    ~rcounts:[| 2; 2 |] ~rdispls:[| 0; 2 |];
  C.alltoallw_style comm D.int ~sendbuf:buf ~scounts:[| 2; 2 |] ~sdispls:[| 0; 2 |] ~recvbuf:out
    ~rcounts:[| 2; 2 |] ~rdispls:[| 0; 2 |];
  C.reduce_scatter_block comm D.int Op.int_sum ~sendbuf:buf ~recvbuf:two ~count:2;
  C.scan comm D.int Op.int_sum ~sendbuf:buf ~recvbuf:out ~count:4;
  C.exscan comm D.int Op.int_sum ~sendbuf:buf ~recvbuf:out ~count:4;
  let dup = C.dup comm in
  ignore (C.split dup ~color:0 ~key:r);
  (* non-blocking and persistent collectives *)
  ignore (Req.wait (C.ibarrier comm));
  ignore (Req.wait (C.ibcast comm D.int buf ~root:0));
  ignore (Req.wait (C.iallreduce comm D.int Op.int_sum ~sendbuf:buf ~recvbuf:out ~count:4));
  ignore
    (Req.wait
       (C.ialltoallv comm D.int ~sendbuf:buf ~scounts:[| 2; 2 |] ~sdispls:[| 0; 2 |]
          ~recvbuf:out ~rcounts:[| 2; 2 |] ~rdispls:[| 0; 2 |]));
  let h = C.bcast_init comm D.int buf ~root:0 in
  Persist.start h;
  ignore (Persist.wait h);
  Persist.free h;
  (* one-sided *)
  let win = Win.create comm D.int (Array.make 4 0) in
  Win.put win ~target:peer ~target_pos:0 [| r |];
  Win.accumulate win ~target:peer ~target_pos:1 Op.int_sum [| r |];
  let g = Win.get win ~target:peer ~target_pos:2 ~count:1 in
  Win.fence win;
  ignore (Win.get_result g);
  Win.free win;
  (* a user region *)
  Kamping.Comm.with_region (Kamping.Comm.wrap comm) "user-phase" (fun () ->
      Comm.compute comm 1e-6)

let golden_run () =
  let res = Trace.Recorder.with_default false (fun () -> Mpi.run ~trace:true ~ranks:2 golden_program) in
  ignore (Mpi.results_exn res);
  let data = Option.get res.Mpi.trace in
  let spans =
    List.map
      (fun (s : Trace.Event.span) ->
        Printf.sprintf "%d %s %s %d %d" s.sp_rank s.sp_op s.sp_cat s.sp_comm s.sp_seq)
      data.Trace.Event.spans
  in
  (spans, res.Mpi.profile)

let golden_spans =
  [
    "0 MPI_Send p2p 0 -1";
    "0 MPI_Isend p2p 0 -1";
    "0 MPI_Issend p2p 0 -1";
    "1 MPI_Probe p2p 0 -1";
    "1 MPI_Recv p2p 0 -1";
    "1 MPI_Irecv p2p 0 -1";
    "1 MPI_Recv p2p 0 -1";
    "1 MPI_Isend p2p 0 -1";
    "0 MPI_Isend p2p 0 -1";
    "0 MPI_Recv p2p 0 -1";
    "0 MPI_Sendrecv p2p 0 -1";
    "0 MPI_Isend p2p 0 -1";
    "1 MPI_Recv p2p 0 -1";
    "1 MPI_Sendrecv p2p 0 -1";
    "1 MPI_Isend p2p 0 -1";
    "1 MPI_Recv p2p 0 -1";
    "1 MPI_Sendrecv_replace p2p 0 -1";
    "0 MPI_Recv p2p 0 -1";
    "0 MPI_Sendrecv_replace p2p 0 -1";
    "0 MPI_Send p2p 0 -1";
    "0 MPI_Send_init p2p 0 -1";
    "0 MPI_Start p2p 0 -1";
    "0 MPI_Wait p2p 0 -1";
    "0 MPI_Ssend_init p2p 0 -1";
    "0 MPI_Start p2p 0 -1";
    "1 MPI_Recv p2p 0 -1";
    "1 MPI_Recv_init p2p 0 -1";
    "1 MPI_Start p2p 0 -1";
    "1 MPI_Wait p2p 0 -1";
    "1 MPI_Recv_init p2p 0 -1";
    "1 MPI_Start p2p 0 -1";
    "1 MPI_Wait p2p 0 -1";
    "1 MPI_Precv_init p2p 0 -1";
    "1 MPI_Start p2p 0 -1";
    "0 MPI_Wait p2p 0 -1";
    "0 MPI_Psend_init p2p 0 -1";
    "0 MPI_Start p2p 0 -1";
    "0 MPI_Pready p2p 0 -1";
    "0 MPI_Pready p2p 0 -1";
    "0 MPI_Wait p2p 0 -1";
    "1 MPI_Wait p2p 0 -1";
    "1 MPI_Barrier coll 0 0";
    "0 MPI_Barrier coll 0 0";
    "0 MPI_Bcast coll 0 1";
    "1 MPI_Bcast coll 0 1";
    "1 MPI_Reduce coll 0 2";
    "0 MPI_Reduce coll 0 2";
    "0 MPI_Allreduce coll 0 3";
    "1 MPI_Allreduce coll 0 3";
    "1 MPI_Allgather coll 0 4";
    "0 MPI_Allgather coll 0 4";
    "0 MPI_Allgatherv coll 0 5";
    "1 MPI_Allgatherv coll 0 5";
    "1 MPI_Gather coll 0 6";
    "1 MPI_Gatherv coll 0 7";
    "0 MPI_Gather coll 0 6";
    "0 MPI_Gatherv coll 0 7";
    "0 MPI_Scatter coll 0 8";
    "0 MPI_Scatterv coll 0 9";
    "1 MPI_Scatter coll 0 8";
    "1 MPI_Scatterv coll 0 9";
    "1 MPI_Alltoall coll 0 10";
    "0 MPI_Alltoall coll 0 10";
    "0 MPI_Alltoallv coll 0 11";
    "1 MPI_Alltoallv coll 0 11";
    "1 MPI_Alltoallw coll 0 12";
    "0 MPI_Alltoallw coll 0 12";
    "0 MPI_Reduce_scatter_block coll 0 13";
    "0 MPI_Scan coll 0 14";
    "0 MPI_Exscan coll 0 15";
    "0 MPI_Comm_dup coll 0 16";
    "1 MPI_Reduce_scatter_block coll 0 13";
    "1 MPI_Scan coll 0 14";
    "1 MPI_Exscan coll 0 15";
    "1 MPI_Comm_dup coll 0 16";
    "0 MPI_Comm_split coll 1 0";
    "0 MPI_Ibarrier coll 0 17";
    "1 MPI_Comm_split coll 1 0";
    "1 MPI_Ibarrier coll 0 17";
    "1 MPI_Ibcast coll 0 18";
    "0 MPI_Ibcast coll 0 18";
    "0 MPI_Iallreduce coll 0 19";
    "1 MPI_Iallreduce coll 0 19";
    "1 MPI_Ialltoallv coll 0 20";
    "0 MPI_Ialltoallv coll 0 20";
    "0 MPI_Bcast_init coll 0 21";
    "0 MPI_Start coll 0 22";
    "0 MPI_Wait coll 0 23";
    "1 MPI_Bcast_init coll 0 21";
    "1 MPI_Start coll 0 22";
    "1 MPI_Wait coll 0 23";
    "1 MPI_Allgather coll 0 24";
    "0 MPI_Allgather coll 0 24";
    "0 MPI_Win_create rma 0 -1";
    "0 MPI_Put rma 0 -1";
    "0 MPI_Accumulate rma 0 -1";
    "0 MPI_Get rma 0 -1";
    "1 MPI_Win_create rma 0 -1";
    "1 MPI_Put rma 0 -1";
    "1 MPI_Accumulate rma 0 -1";
    "1 MPI_Get rma 0 -1";
    "1 MPI_Alltoall coll 0 25";
    "0 MPI_Alltoall coll 0 25";
    "0 MPI_Alltoallv coll 0 26";
    "1 MPI_Alltoallv coll 0 26";
    "1 MPI_Alltoall coll 0 27";
    "0 MPI_Alltoall coll 0 27";
    "0 MPI_Alltoallv coll 0 28";
    "1 MPI_Alltoallv coll 0 28";
    "1 MPI_Alltoall coll 0 29";
    "0 MPI_Alltoall coll 0 29";
    "0 MPI_Alltoallv coll 0 30";
    "1 MPI_Alltoallv coll 0 30";
    "1 MPI_Alltoall coll 0 31";
    "0 MPI_Alltoall coll 0 31";
    "0 MPI_Alltoallv coll 0 32";
    "1 MPI_Alltoallv coll 0 32";
    "1 MPI_Barrier coll 0 33";
    "1 MPI_Win_fence rma 0 -1";
    "1 MPI_Win_free rma 0 -1";
    "1 user-phase user 0 -1";
    "0 MPI_Barrier coll 0 33";
    "0 MPI_Win_fence rma 0 -1";
    "0 MPI_Win_free rma 0 -1";
    "0 user-phase user 0 -1";
  ]

let golden_calls =
  [
    ("MPI_Accumulate", 2);
    ("MPI_Allgather", 4);
    ("MPI_Allgatherv", 2);
    ("MPI_Allreduce", 2);
    ("MPI_Alltoall", 10);
    ("MPI_Alltoallv", 10);
    ("MPI_Alltoallw", 2);
    ("MPI_Barrier", 4);
    ("MPI_Bcast", 2);
    ("MPI_Bcast_init", 2);
    ("MPI_Comm_dup", 2);
    ("MPI_Comm_split", 2);
    ("MPI_Exscan", 2);
    ("MPI_Gather", 2);
    ("MPI_Gatherv", 2);
    ("MPI_Get", 2);
    ("MPI_Iallreduce", 2);
    ("MPI_Ialltoallv", 2);
    ("MPI_Ibarrier", 2);
    ("MPI_Ibcast", 2);
    ("MPI_Iprobe", 1);
    ("MPI_Irecv", 1);
    ("MPI_Isend", 5);
    ("MPI_Issend", 1);
    ("MPI_Precv_init", 1);
    ("MPI_Probe", 1);
    ("MPI_Psend_init", 1);
    ("MPI_Put", 2);
    ("MPI_Recv", 7);
    ("MPI_Recv_init", 2);
    ("MPI_Reduce", 2);
    ("MPI_Reduce_scatter_block", 2);
    ("MPI_Scan", 2);
    ("MPI_Scatter", 2);
    ("MPI_Scatterv", 2);
    ("MPI_Send", 2);
    ("MPI_Send_init", 1);
    ("MPI_Sendrecv", 2);
    ("MPI_Sendrecv_replace", 2);
    ("MPI_Ssend_init", 1);
    ("MPI_Win_create", 2);
    ("MPI_Win_fence", 2);
    ("MPI_Win_free", 2);
  ]
let golden_algo_calls =
  [
    ("MPI_Allgather[bruck]", 4);
    ("MPI_Allreduce[recursive_doubling]", 2);
    ("MPI_Alltoall[pairwise]", 10);
    ("MPI_Bcast[binomial]", 2);
    ("MPI_Bcast_init[binomial]", 2);
    ("MPI_Iallreduce[recursive_doubling]", 2);
    ("MPI_Ibcast[binomial]", 2);
  ]
let golden_messages = 69
let golden_bytes = 9504

let test_golden () =
  let spans, prof = golden_run () in
  Alcotest.(check (list string)) "ordered spans" golden_spans spans;
  Alcotest.(check (list (pair string int))) "call profile" golden_calls prof.Mpisim.Profiling.calls;
  Alcotest.(check (list (pair string int))) "algorithm profile" golden_algo_calls prof.algo_calls;
  Alcotest.(check int) "messages" golden_messages prof.messages;
  Alcotest.(check int) "bytes" golden_bytes prof.bytes

(* Calls rejected by argument validation: each is counted in the PMPI
   profile (the count comes before validation) but opens no span (the
   span starts after it). *)
let test_rejected_calls () =
  let rejected f = try f (); false with Errors.Usage_error _ -> true in
  let res =
    Trace.Recorder.with_default false (fun () ->
        Mpi.run ~trace:true ~ranks:2 (fun comm ->
            let buf = Array.make 4 0 in
            assert (rejected (fun () -> C.bcast comm D.int buf ~root:2));
            assert (rejected (fun () -> ignore (P.isend comm D.int buf ~pos:3 ~count:2 ~dst:0 ~tag:0)));
            assert (
              rejected (fun () -> ignore (P.issend comm D.int buf ~pos:3 ~count:2 ~dst:0 ~tag:0)))))
  in
  ignore (Mpi.results_exn res);
  Alcotest.(check (list (pair string int)))
    "rejected calls are counted"
    [ ("MPI_Bcast", 2); ("MPI_Isend", 2); ("MPI_Issend", 2) ]
    res.Mpi.profile.Mpisim.Profiling.calls;
  Alcotest.(check int) "rejected calls open no span" 0
    (List.length (Option.get res.Mpi.trace).Trace.Event.spans)

(* ------------------------------------------------------------------ *)
(* Payload-landing matrix                                              *)
(* ------------------------------------------------------------------ *)

type sender = Dense | Sparse
type receiver = Recv | Irecv | Recv_sparse | Recv_init
type fit = Fits | Truncated | Mismatch
type order = Message_first | Receive_first

let sent_count = 4
let delay = 1e-3

let sender_name = function Dense -> "send" | Sparse -> "send_sparse"

let receiver_name = function
  | Recv -> "recv"
  | Irecv -> "irecv"
  | Recv_sparse -> "recv_sparse"
  | Recv_init -> "recv_init"

let fit_name = function Fits -> "fits" | Truncated -> "truncated" | Mismatch -> "mismatch"
let order_name = function Message_first -> "message first" | Receive_first -> "receive first"

(* The PMPI name the receive records its match errors under. *)
let receiver_op = function
  | Recv | Recv_sparse -> "MPI_Recv"
  | Irecv -> "MPI_Irecv"
  | Recv_init -> "MPI_Recv_init"

let send_side sender fit comm =
  let tag = 0 and dst = 1 in
  match (sender, fit) with
  | Dense, Mismatch -> P.send comm D.float (Array.make sent_count 1.5) ~dst ~tag
  | Dense, (Fits | Truncated) -> P.send comm D.int (Array.init sent_count (fun i -> 10 + i)) ~dst ~tag
  | Sparse, Mismatch -> P.send_sparse comm D.float ~count:sent_count ~dst ~tag
  | Sparse, (Fits | Truncated) -> P.send_sparse comm D.int ~count:sent_count ~dst ~tag

(* Returns the status and the receive buffer (dense receives only). *)
let recv_side receiver fit comm =
  let capacity = match fit with Truncated -> sent_count / 2 | Fits | Mismatch -> sent_count + 2 in
  let buf = Array.make (sent_count + 2) 0 in
  let st =
    match receiver with
    | Recv -> P.recv comm D.int buf ~count:capacity ~src:0 ~tag:0
    | Irecv -> Req.wait (P.irecv comm D.int buf ~count:capacity ~src:0 ~tag:0)
    | Recv_sparse -> P.recv_sparse comm D.int ~capacity ~src:0 ~tag:0
    | Recv_init ->
        let h = P.recv_init comm D.int buf ~count:capacity ~src:0 ~tag:0 in
        Persist.start h;
        let st = Persist.wait h in
        Persist.free h;
        st
  in
  (st, buf)

let landing_case sender receiver fit order () =
  let res =
    Ck.with_level Ck.Light (fun () ->
        Mpi.run ~ranks:2 (fun comm ->
            if Comm.rank comm = 0 then begin
              if order = Receive_first then Comm.compute comm delay;
              send_side sender fit comm;
              None
            end
            else begin
              if order = Message_first then Comm.compute comm delay;
              Some (recv_side receiver fit comm)
            end))
  in
  let diags = res.Mpi.diagnostics in
  match (fit, res.Mpi.results.(1)) with
  | Fits, Ok (Some (st, buf)) ->
      Alcotest.(check (list int)) "status (source, tag, count)" [ 0; 0; sent_count ]
        [ st.Req.source; st.tag; st.count ];
      let landed = Array.sub buf 0 sent_count |> Array.to_list in
      let expected =
        match (sender, receiver) with
        | Dense, (Recv | Irecv | Recv_init) -> [ 10; 11; 12; 13 ]
        | Sparse, _ | Dense, Recv_sparse -> [ 0; 0; 0; 0 ]
      in
      Alcotest.(check (list int)) "landed elements" expected landed;
      Alcotest.(check int) "no diagnostic" 0 (List.length diags)
  | Truncated, Error (Errors.Truncated { sent; capacity }) ->
      Alcotest.(check (pair int int)) "sent, capacity" (sent_count, sent_count / 2) (sent, capacity);
      Alcotest.(check bool) "Light truncation diagnostic" true
        (List.exists
           (fun (d : Ck.diagnostic) ->
             d.rank = 1 && d.op = receiver_op receiver && d.location = "p2p-match"
             && d.detail = Ck.Truncation { sent = sent_count; capacity = sent_count / 2 })
           diags)
  | Mismatch, Error (Errors.Type_mismatch { sent; expected }) ->
      Alcotest.(check (pair string string)) "sent, expected"
        (D.name D.float, D.name D.int) (sent, expected);
      Alcotest.(check bool) "Light datatype diagnostic" true
        (List.exists
           (fun (d : Ck.diagnostic) ->
             d.rank = 1 && d.op = receiver_op receiver && d.location = "p2p-match"
             && d.detail = Ck.Datatype_mismatch { sent = D.name D.float; expected = D.name D.int })
           diags)
  | _, Ok _ -> Alcotest.fail "receive succeeded where it must fail"
  | _, Error e -> Alcotest.failf "unexpected outcome: %s" (Printexc.to_string e)

let landing_matrix =
  List.concat_map
    (fun sender ->
      List.concat_map
        (fun receiver ->
          List.concat_map
            (fun fit ->
              List.map
                (fun order ->
                  Alcotest.test_case
                    (Printf.sprintf "landing: %s -> %s, %s, %s" (sender_name sender)
                       (receiver_name receiver) (fit_name fit) (order_name order))
                    `Quick
                    (landing_case sender receiver fit order))
                [ Message_first; Receive_first ])
            [ Fits; Truncated; Mismatch ])
        [ Recv; Irecv; Recv_sparse; Recv_init ])
    [ Dense; Sparse ]

(* ------------------------------------------------------------------ *)
(* A killed rank's blocking probe                                      *)
(* ------------------------------------------------------------------ *)

(* Rank 0 dies while parked in a blocking probe; ranks 1 and 2 deadlock
   receiving from each other.  The diagnosis must name ranks 1 and 2 only:
   the dead rank's parked probe is dropped with its posted receives. *)
let test_dead_probe_not_blocked () =
  let res =
    Ck.with_level Ck.Heavy (fun () ->
        Mpi.run ~ranks:3 ~failures:[ (1e-6, 0) ] (fun comm ->
            match Comm.rank comm with
            | 0 -> ignore (P.probe comm ~src:1 ~tag:0)
            | r -> ignore (P.recv comm D.int [| 0 |] ~src:(3 - r) ~tag:0)))
  in
  let blocked =
    List.find_map
      (fun (d : Ck.diagnostic) ->
        match d.detail with Ck.Deadlock_cycle { blocked; _ } -> Some blocked | _ -> None)
      res.Mpi.diagnostics
  in
  match blocked with
  | None -> Alcotest.fail "expected a deadlock diagnostic"
  | Some blocked ->
      Alcotest.(check (list int)) "blocked ranks" [ 1; 2 ] (List.map fst blocked)

let suite =
  Alcotest.test_case "golden spans and PMPI profile" `Quick test_golden
  :: Alcotest.test_case "rejected calls counted, not spanned" `Quick test_rejected_calls
  :: Alcotest.test_case "killed rank's probe is not blocked" `Quick test_dead_probe_not_blocked
  :: landing_matrix
