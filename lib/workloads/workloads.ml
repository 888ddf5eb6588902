open Fortran_front

type t = {
  name : string;
  description : string;
  phenomenon : string;
  source : string;
  main_loops : int;
  main_parallel : int;
  assertion_script : string list;
}

let matmul =
  {
    name = "matmul";
    description = "dense matrix multiply, K outermost";
    phenomenon = "perfect nest; interchange moves parallelism outward";
    main_loops = 7;
    main_parallel = 6;
    assertion_script = [];
    source =
      {|
      PROGRAM MATMUL
      INTEGER N
      PARAMETER (N = 24)
      REAL A(N,N), B(N,N), C(N,N)
      INTEGER I, J, K
      REAL S
      DO I = 1, N
        DO J = 1, N
          A(I,J) = FLOAT(I+J) / FLOAT(N)
          B(I,J) = FLOAT(I-J) / FLOAT(N)
          C(I,J) = 0.0
        ENDDO
      ENDDO
      DO K = 1, N
        DO I = 1, N
          DO J = 1, N
            C(I,J) = C(I,J) + A(I,K) * B(K,J)
          ENDDO
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        DO J = 1, N
          S = S + C(I,J)
        ENDDO
      ENDDO
      PRINT *, S
      END
|};
  }

let jacobi =
  {
    name = "jacobi";
    description = "5-point Jacobi relaxation with two grids";
    phenomenon = "stencil on separate arrays: inner nests fully parallel";
    main_loops = 9;
    main_parallel = 8;
    assertion_script = [];
    source =
      {|
      PROGRAM JACOBI
      INTEGER N, ITERS
      PARAMETER (N = 24, ITERS = 4)
      REAL U(N,N), V(N,N)
      INTEGER I, J, T
      REAL S
      DO I = 1, N
        DO J = 1, N
          U(I,J) = FLOAT(I*J) / FLOAT(N*N)
          V(I,J) = 0.0
        ENDDO
      ENDDO
      DO T = 1, ITERS
        DO I = 2, N-1
          DO J = 2, N-1
            V(I,J) = 0.25 * (U(I-1,J) + U(I+1,J) + U(I,J-1) + U(I,J+1))
          ENDDO
        ENDDO
        DO I = 2, N-1
          DO J = 2, N-1
            U(I,J) = V(I,J)
          ENDDO
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        DO J = 1, N
          S = S + U(I,J)
        ENDDO
      ENDDO
      PRINT *, S
      END
|};
  }

let sor =
  {
    name = "sor";
    description = "Gauss-Seidel relaxation, in place";
    phenomenon = "wavefront recurrence: skew + interchange parallelizes";
    main_loops = 7;
    main_parallel = 4;
    assertion_script = [];
    source =
      {|
      PROGRAM SOR
      INTEGER N, ITERS
      PARAMETER (N = 48, ITERS = 2)
      REAL A(0:N+1,0:N+1)
      INTEGER I, J, T
      REAL S
      DO I = 0, N+1
        DO J = 0, N+1
          A(I,J) = FLOAT(I+2*J) / FLOAT(N)
        ENDDO
      ENDDO
      DO T = 1, ITERS
        DO I = 1, N
          DO J = 1, N
            A(I,J) = 0.25 * (A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1))
          ENDDO
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        DO J = 1, N
          S = S + A(I,J)
        ENDDO
      ENDDO
      PRINT *, S
      END
|};
  }

let recur =
  {
    name = "recur";
    description = "first-order linear recurrence mixed with parallel work";
    phenomenon = "distribution isolates the recurrence";
    main_loops = 3;
    main_parallel = 2;
    assertion_script = [];
    source =
      {|
      PROGRAM RECUR
      INTEGER N
      PARAMETER (N = 512)
      REAL X(N), Y(N), B(N), C(N), D(N)
      INTEGER I
      REAL S
      DO I = 1, N
        B(I) = 0.5
        C(I) = FLOAT(I) / FLOAT(N)
        D(I) = 1.0
      ENDDO
      X(1) = 1.0
      Y(1) = 1.0
      DO I = 2, N
        X(I) = X(I-1) * B(I) + C(I)
        Y(I) = X(I) + D(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + X(I) + Y(I)
      ENDDO
      PRINT *, S
      END
|};
  }

let daxpy =
  {
    name = "daxpy";
    description = "BLAS-1 style vector update and scale";
    phenomenon = "trivially parallel; adjacent loops fusable";
    main_loops = 4;
    main_parallel = 4;
    assertion_script = [];
    source =
      {|
      PROGRAM DAXPY
      INTEGER N
      PARAMETER (N = 1024)
      REAL X(N), Y(N), Z(N), A
      INTEGER I
      REAL S
      A = 2.5
      DO I = 1, N
        X(I) = FLOAT(I) / FLOAT(N)
        Y(I) = FLOAT(N - I) / FLOAT(N)
      ENDDO
      DO I = 1, N
        Y(I) = Y(I) + A * X(I)
      ENDDO
      DO I = 1, N
        Z(I) = 2.0 * Y(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + Z(I)
      ENDDO
      PRINT *, S
      END
|};
  }

let tridiag =
  {
    name = "tridiag";
    description = "Thomas algorithm for a tridiagonal system";
    phenomenon = "genuine sequential recurrences (negative control)";
    main_loops = 4;
    main_parallel = 2;
    assertion_script = [];
    source =
      {|
      PROGRAM TRIDIA
      INTEGER N
      PARAMETER (N = 256)
      REAL A(N), B(N), C(N), D(N), X(N)
      INTEGER I
      REAL RM, S
      DO I = 1, N
        A(I) = 1.0
        B(I) = 4.0
        C(I) = 1.0
        D(I) = FLOAT(I)
      ENDDO
      DO I = 2, N
        RM = A(I) / B(I-1)
        B(I) = B(I) - RM * C(I-1)
        D(I) = D(I) - RM * D(I-1)
      ENDDO
      X(N) = D(N) / B(N)
      DO I = N-1, 1, -1
        X(I) = (D(I) - C(I) * X(I+1)) / B(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + X(I)
      ENDDO
      PRINT *, S
      END
|};
  }

let sumred =
  {
    name = "sumred";
    description = "inner product plus running max/min";
    phenomenon = "scalar reductions (sum, max, min) recognized";
    main_loops = 2;
    main_parallel = 2;
    assertion_script = [];
    source =
      {|
      PROGRAM SUMRED
      INTEGER N
      PARAMETER (N = 2048)
      REAL A(N), B(N)
      INTEGER I
      REAL S, AMX, AMN
      DO I = 1, N
        A(I) = SIN(FLOAT(I))
        B(I) = COS(FLOAT(I))
      ENDDO
      S = 0.0
      AMX = -1.0E9
      AMN = 1.0E9
      DO I = 1, N
        S = S + A(I) * B(I)
        AMX = MAX(AMX, A(I))
        AMN = MIN(AMN, B(I))
      ENDDO
      PRINT *, S, AMX, AMN
      END
|};
  }

let symbounds =
  {
    name = "symbounds";
    description = "shifted vector update with a symbolic offset";
    phenomenon = "symbolic term blocks analysis; a value assertion unlocks it";
    main_loops = 1;
    main_parallel = 1;
    assertion_script = [ "unit SHIFT"; "assert M = 64" ];
    source =
      {|
      PROGRAM SYMBND
      INTEGER N
      PARAMETER (N = 64)
      REAL A(2*N), B(2*N)
      INTEGER I, M
      REAL S
      COMMON /CFG/ M
      M = N
      CALL SETUP(A, B, 2*N)
      CALL SHIFT(A, B, N)
      S = 0.0
      DO I = 1, 2*N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
      SUBROUTINE SETUP(A, B, N2)
      INTEGER N2, I
      REAL A(N2), B(N2)
      DO I = 1, N2
        A(I) = FLOAT(I)
        B(I) = FLOAT(N2 - I)
      ENDDO
      END
      SUBROUTINE SHIFT(A, B, N)
      INTEGER N, M, I
      REAL A(N+N), B(N+N)
      COMMON /CFG/ M
      DO I = 1, N
        A(I) = A(I+M) + B(I)
      ENDDO
      END
|};
  }

let indexarr =
  {
    name = "indexarr";
    description = "scatter/gather through a permutation index array";
    phenomenon = "index-array subscripts need a user assertion (permutation)";
    main_loops = 3;
    main_parallel = 2;
    assertion_script = [ "assert perm IDX" ];
    source =
      {|
      PROGRAM IDXARR
      INTEGER N
      PARAMETER (N = 256)
      REAL A(N), B(N)
      INTEGER IDX(N)
      INTEGER I
      REAL S
      DO I = 1, N
        IDX(I) = N + 1 - I
        A(I) = 0.0
        B(I) = FLOAT(I)
      ENDDO
      DO I = 1, N
        A(IDX(I)) = A(IDX(I)) + B(I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
|};
  }

let callnest =
  {
    name = "callnest";
    description = "loops whose bodies are procedure calls on rows";
    phenomenon =
      "interprocedural Mod/Ref + regular sections prove call rows disjoint";
    main_loops = 3;
    main_parallel = 3;
    assertion_script = [];
    source =
      {|
      PROGRAM CALLNE
      INTEGER N, M
      PARAMETER (N = 24, M = 24)
      REAL A(N,M), ROWSUM(N)
      INTEGER I
      REAL S
      DO I = 1, N
        CALL INITRO(A, N, M, I)
      ENDDO
      DO I = 1, N
        CALL ROWOP(A, ROWSUM, N, M, I)
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + ROWSUM(I)
      ENDDO
      PRINT *, S
      END
      SUBROUTINE INITRO(A, N, M, I)
      INTEGER N, M, I, J
      REAL A(N,M)
      DO J = 1, M
        A(I,J) = FLOAT(I+J) / FLOAT(N)
      ENDDO
      END
      SUBROUTINE ROWOP(A, R, N, M, I)
      INTEGER N, M, I, J
      REAL A(N,M), R(N)
      R(I) = 0.0
      DO J = 1, M
        A(I,J) = A(I,J) * 2.0
        R(I) = R(I) + A(I,J)
      ENDDO
      END
|};
  }


let arrpriv =
  {
    name = "arrpriv";
    description = "column sweep through a reused work array";
    phenomenon =
      "array privatization (the slab2d case): the work array is rewritten \
       every iteration, so the outer loop parallelizes";
    main_loops = 7;
    main_parallel = 7;
    assertion_script = [];
    source =
      {|
      PROGRAM ARPRIV
      INTEGER N, M
      PARAMETER (N = 16, M = 16)
      REAL A(N,M), W(M)
      INTEGER I, J
      REAL S
      DO I = 1, N
        DO J = 1, M
          A(I,J) = FLOAT(I*J) / FLOAT(N)
        ENDDO
      ENDDO
      DO I = 1, N
        DO J = 1, M
          W(J) = A(I,J) * 2.0
        ENDDO
        DO J = 1, M
          A(I,J) = W(J) + 1.0
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        DO J = 1, M
          S = S + A(I,J)
        ENDDO
      ENDDO
      PRINT *, S
      END
|};
  }

let redblack =
  {
    name = "redblack";
    description = "red-black Gauss-Seidel (stride-2 sweeps)";
    phenomenon = "strided subscripts: strong SIV disproves cross-color deps";
    main_loops = 5;
    main_parallel = 4;
    assertion_script = [];
    source =
      {|
      PROGRAM REDBLK
      INTEGER N, ITERS
      PARAMETER (N = 32, ITERS = 2)
      REAL A(0:N+1)
      INTEGER I, T
      REAL S
      DO I = 0, N+1
        A(I) = FLOAT(I) / FLOAT(N)
      ENDDO
      DO T = 1, ITERS
        DO I = 1, N-1, 2
          A(I) = 0.5 * (A(I-1) + A(I+1))
        ENDDO
        DO I = 2, N, 2
          A(I) = 0.5 * (A(I-1) + A(I+1))
        ENDDO
      ENDDO
      S = 0.0
      DO I = 0, N+1
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
|};
  }

let gauss =
  {
    name = "gauss";
    description = "Gaussian elimination (no pivoting)";
    phenomenon = "triangular nests: K sequential, update I/J loops parallel";
    main_loops = 7;
    main_parallel = 6;
    assertion_script = [];
    source =
      {|
      PROGRAM GAUSS
      INTEGER N
      PARAMETER (N = 12)
      REAL A(N,N)
      INTEGER I, J, K
      REAL S
      DO I = 1, N
        DO J = 1, N
          A(I,J) = FLOAT(I+J) / FLOAT(N)
        ENDDO
        A(I,I) = A(I,I) + FLOAT(N)
      ENDDO
      DO K = 1, N-1
        DO I = K+1, N
          A(I,K) = A(I,K) / A(K,K)
        ENDDO
        DO I = K+1, N
          DO J = K+1, N
            A(I,J) = A(I,J) - A(I,K) * A(K,J)
          ENDDO
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        S = S + A(I,I)
      ENDDO
      PRINT *, S
      END
|};
  }

let linesweep =
  {
    name = "linesweep";
    description = "ADI-style line sweeps in both grid directions";
    phenomenon =
      "recurrence along one dimension only: the other dimension's loop \
       parallelizes in each sweep";
    main_loops = 9;
    main_parallel = 6;
    assertion_script = [];
    source =
      {|
      PROGRAM LINES
      INTEGER N
      PARAMETER (N = 16)
      REAL U(N,N)
      INTEGER I, J, T
      REAL S
      DO I = 1, N
        DO J = 1, N
          U(I,J) = FLOAT(I+J) / FLOAT(N)
        ENDDO
      ENDDO
      DO T = 1, 2
        DO J = 1, N
          DO I = 2, N
            U(I,J) = 0.5 * (U(I,J) + U(I-1,J))
          ENDDO
        ENDDO
        DO I = 1, N
          DO J = 2, N
            U(I,J) = 0.5 * (U(I,J) + U(I,J-1))
          ENDDO
        ENDDO
      ENDDO
      S = 0.0
      DO I = 1, N
        DO J = 1, N
          S = S + U(I,J)
        ENDDO
      ENDDO
      PRINT *, S
      END
|};
  }

let spec77x =
  {
    name = "spec77x";
    description = "miniature multi-unit weather step (columns + diagnostics)";
    phenomenon =
      "whole-program workout: COMMON physics constants, per-column calls \
       (sections), reductions, and a sequential time loop";
    main_loops = 4;
    main_parallel = 3;
    assertion_script = [];
    source =
      {|
      PROGRAM SPEC77
      INTEGER NLON, NLEV, STEPS
      PARAMETER (NLON = 12, NLEV = 8, STEPS = 3)
      REAL T(NLON,NLEV), Q(NLON,NLEV)
      REAL GRAV, CP
      COMMON /PHYS/ GRAV, CP
      INTEGER I, STEP
      REAL HEAT, WET
      GRAV = 9.8
      CP = 1004.0
      DO I = 1, NLON
        CALL INITCO(T, Q, NLON, NLEV, I)
      ENDDO
      DO STEP = 1, STEPS
        DO I = 1, NLON
          CALL COLUMN(T, Q, NLON, NLEV, I)
        ENDDO
      ENDDO
      HEAT = 0.0
      WET = 0.0
      DO I = 1, NLON
        HEAT = HEAT + T(I,1)
        WET = WET + Q(I,NLEV)
      ENDDO
      PRINT *, HEAT, WET
      END
      SUBROUTINE INITCO(T, Q, NLON, NLEV, I)
      INTEGER NLON, NLEV, I, K
      REAL T(NLON,NLEV), Q(NLON,NLEV)
      DO K = 1, NLEV
        T(I,K) = 280.0 + FLOAT(I) - FLOAT(K)
        Q(I,K) = 0.01 * FLOAT(K)
      ENDDO
      END
      SUBROUTINE COLUMN(T, Q, NLON, NLEV, I)
      INTEGER NLON, NLEV, I, K
      REAL T(NLON,NLEV), Q(NLON,NLEV)
      REAL GRAV, CP
      COMMON /PHYS/ GRAV, CP
      REAL FLUX
      FLUX = 0.0
      DO K = 2, NLEV
        FLUX = FLUX + GRAV * Q(I,K-1)
        T(I,K) = T(I,K) + FLUX / CP
        Q(I,K) = Q(I,K) * 0.99
      ENDDO
      END
|};
  }


let sympro =
  {
    name = "sympro";
    description = "offset updates through a propagated constant and a formal";
    phenomenon =
      "one loop needs constant propagation (H = N/2 offset), one needs \
       symbolic analysis (offset through an unknowable formal K)";
    main_loops = 3;
    main_parallel = 3;
    assertion_script = [];
    source =
      {|
      PROGRAM SYMPRO
      INTEGER N, H
      PARAMETER (N = 64)
      REAL A(N), B(N)
      INTEGER I
      REAL S
      H = N / 2
      DO I = 1, N
        A(I) = FLOAT(I)
        B(I) = FLOAT(N - I)
      ENDDO
      DO I = 1, H
        A(I) = A(I+H) * 0.5
      ENDDO
      CALL APPLY(A, B, N, 3)
      CALL APPLY(A, B, N, 5)
      S = 0.0
      DO I = 1, N
        S = S + A(I)
      ENDDO
      PRINT *, S
      END
      SUBROUTINE APPLY(A, B, N, K)
      INTEGER N, K, I
      REAL A(N), B(N)
      DO I = 1, N - 8
        A(I+K) = A(I+K) * 0.9 + B(I) * 0.1
      ENDDO
      END
|};
  }


let shallow =
  {
    name = "shallow";
    description = "shallow-water time step (4 units, halo copies)";
    phenomenon =
      "a small application: stencil updates and boundary copies behind \
       calls, COMMON physics scalars, an energy reduction";
    main_loops = 3;
    main_parallel = 2;
    assertion_script = [];
    source =
      {|
      PROGRAM SHALOW
      INTEGER N, STEPS
      PARAMETER (N = 16, STEPS = 3)
      REAL U(N,N), V(N,N), H(N,N)
      REAL UN(N,N), VN(N,N), HN(N,N)
      REAL DT, DX
      COMMON /GRID/ DT, DX
      INTEGER I, J, T
      REAL TOTE
      DT = 0.01
      DX = 1.0
      CALL START(U, V, H, N)
      DO T = 1, STEPS
        CALL STEPUV(U, V, H, UN, VN, HN, N)
        CALL COPYGR(U, V, H, UN, VN, HN, N)
      ENDDO
      TOTE = 0.0
      DO I = 1, N
        DO J = 1, N
          TOTE = TOTE + H(I,J) + 0.5 * (U(I,J)**2 + V(I,J)**2)
        ENDDO
      ENDDO
      PRINT *, TOTE
      END
      SUBROUTINE START(U, V, H, N)
      INTEGER N, I, J
      REAL U(N,N), V(N,N), H(N,N)
      DO I = 1, N
        DO J = 1, N
          U(I,J) = 0.1 * FLOAT(I - J)
          V(I,J) = 0.05 * FLOAT(I + J)
          H(I,J) = 10.0 + SIN(FLOAT(I)) * COS(FLOAT(J))
        ENDDO
      ENDDO
      END
      SUBROUTINE STEPUV(U, V, H, UN, VN, HN, N)
      INTEGER N, I, J
      REAL U(N,N), V(N,N), H(N,N)
      REAL UN(N,N), VN(N,N), HN(N,N)
      REAL DT, DX
      COMMON /GRID/ DT, DX
      DO I = 2, N-1
        DO J = 2, N-1
          UN(I,J) = U(I,J) - DT / DX * (H(I+1,J) - H(I-1,J)) * 0.5
          VN(I,J) = V(I,J) - DT / DX * (H(I,J+1) - H(I,J-1)) * 0.5
          HN(I,J) = H(I,J) - DT / DX *
     &      (U(I+1,J) - U(I-1,J) + V(I,J+1) - V(I,J-1)) * 0.5
        ENDDO
      ENDDO
      DO I = 1, N
        UN(I,1) = U(I,1)
        VN(I,1) = V(I,1)
        HN(I,1) = H(I,1)
        UN(I,N) = U(I,N)
        VN(I,N) = V(I,N)
        HN(I,N) = H(I,N)
      ENDDO
      DO J = 2, N-1
        UN(1,J) = U(1,J)
        VN(1,J) = V(1,J)
        HN(1,J) = H(1,J)
        UN(N,J) = U(N,J)
        VN(N,J) = V(N,J)
        HN(N,J) = H(N,J)
      ENDDO
      END
      SUBROUTINE COPYGR(U, V, H, UN, VN, HN, N)
      INTEGER N, I, J
      REAL U(N,N), V(N,N), H(N,N)
      REAL UN(N,N), VN(N,N), HN(N,N)
      DO I = 1, N
        DO J = 1, N
          U(I,J) = UN(I,J)
          V(I,J) = VN(I,J)
          H(I,J) = HN(I,J)
        ENDDO
      ENDDO
      END
|};
  }

let all =
  [ matmul; jacobi; sor; recur; daxpy; tridiag; sumred; symbounds; indexarr;
    callnest; arrpriv; redblack; gauss; linesweep; spec77x; sympro; shallow ]

let names = List.map (fun w -> w.name) all

let by_name n = List.find_opt (fun w -> String.equal w.name n) all

let program w = Parser.parse_program ~file:(w.name ^ ".f") w.source

(* Wide enough that bucket-level parallelism has something to chew
   on: the nests cycle through four dependence patterns, so every
   cross-nest bucket holds real reference pairs. *)
let wide_nests ~nests ~seed_const =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "      PROGRAM PARSC\n";
  add "      INTEGER N\n";
  add "      PARAMETER (N = 64)\n";
  add "      REAL A(N,N), B(N,N), C(N,N)\n";
  add "      INTEGER I, J\n";
  add "      REAL S\n";
  add "      DO I = 1, N\n";
  add "        DO J = 1, N\n";
  add "          A(I,J) = FLOAT(I+J)\n";
  add "          B(I,J) = FLOAT(I-J)\n";
  add "          C(I,J) = 0.0\n";
  add "        ENDDO\n";
  add "      ENDDO\n";
  for k = 0 to nests - 1 do
    let c = if k = 0 then seed_const else float_of_int (k + 1) in
    add "      DO I = 2, N\n";
    add "        DO J = 2, N\n";
    (match k mod 4 with
    | 0 -> add "          A(I,J) = A(I,J) + B(I,J) * %.1f\n" c
    | 1 -> add "          B(I,J) = B(I-1,J) + C(I,J) * %.1f\n" c
    | 2 -> add "          C(I,J) = A(J,I) + B(I,J-1) * %.1f\n" c
    | _ -> add "          A(I,J) = C(I-1,J-1) + A(I,J-1) * %.1f\n" c);
    add "        ENDDO\n";
    add "      ENDDO\n"
  done;
  add "      S = 0.0\n";
  add "      DO I = 1, N\n";
  add "        DO J = 1, N\n";
  add "          S = S + A(I,J) + B(I,J) + C(I,J)\n";
  add "        ENDDO\n";
  add "      ENDDO\n";
  add "      PRINT *, S\n";
  add "      END\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* generated stress workloads                                          *)
(*                                                                     *)
(* The oracle's stress factory, addressable wherever a workload name   *)
(* is accepted as "stress:PROFILE[@SCALE]" — e.g. "stress:deep",       *)
(* "stress:many-units@0.2".  They are registered beside [all], not in  *)
(* it: the curated suite pins per-kernel loop counts and simulator     *)
(* outcomes, while stress programs are sized for analysis pressure,    *)
(* not for pinning.                                                    *)
(* ------------------------------------------------------------------ *)

let stress_prefix = "stress:"

let is_stress_name n =
  String.length n > String.length stress_prefix
  && String.sub n 0 (String.length stress_prefix) = stress_prefix

let stress_names =
  List.map (fun p -> stress_prefix ^ p.Oracle.Stress.sp_name) Oracle.Stress.all

let stress ?(seed = 42) name =
  if not (is_stress_name name) then
    Error (Printf.sprintf "not a stress workload name: %s" name)
  else
    let rest =
      String.sub name (String.length stress_prefix)
        (String.length name - String.length stress_prefix)
    in
    let pname, resize =
      match String.index_opt rest '@' with
      | None -> (rest, Ok Fun.id)
      | Some i ->
        let s = String.sub rest (i + 1) (String.length rest - i - 1) in
        let resize =
          (* named sizes for scripts and CI, numeric for everything else *)
          match (String.lowercase_ascii s, float_of_string_opt s) with
          | "tiny", _ -> Ok (Oracle.Stress.scale 0.05)
          | "smoke", _ -> Ok Oracle.Stress.smoke
          | "full", _ -> Ok (Oracle.Stress.scale 1.0)
          | _, None -> Error (Printf.sprintf "bad scale in %s" name)
          | _, Some f when f <= 0.0 ->
            Error (Printf.sprintf "scale must be positive in %s" name)
          | _, Some f -> Ok (Oracle.Stress.scale f)
        in
        (String.sub rest 0 i, resize)
    in
    match Oracle.Stress.by_name pname with
    | None ->
      Error
        (Printf.sprintf "unknown stress profile %s (available: %s)" pname
           (String.concat ", " Oracle.Stress.names))
    | Some p ->
      Result.map (fun resize -> Oracle.Stress.generate ~seed (resize p)) resize

let main_unit w = (Ast.entry_unit (program w)).Ast.uname
