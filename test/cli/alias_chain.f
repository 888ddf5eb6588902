C     A pair of aliased formals handed down twelve call levels.
C     The units are listed callee-first, so a walk in program order
C     reaches S12 last.
      SUBROUTINE S12(X, Y)
      REAL X(100), Y(100)
      DO 10 I = 1, 99
        X(I) = Y(I+1)
   10 CONTINUE
      END

      SUBROUTINE S11(X, Y)
      REAL X(100), Y(100)
      CALL S12(X, Y)
      END

      SUBROUTINE S10(X, Y)
      REAL X(100), Y(100)
      CALL S11(X, Y)
      END

      SUBROUTINE S9(X, Y)
      REAL X(100), Y(100)
      CALL S10(X, Y)
      END

      SUBROUTINE S8(X, Y)
      REAL X(100), Y(100)
      CALL S9(X, Y)
      END

      SUBROUTINE S7(X, Y)
      REAL X(100), Y(100)
      CALL S8(X, Y)
      END

      SUBROUTINE S6(X, Y)
      REAL X(100), Y(100)
      CALL S7(X, Y)
      END

      SUBROUTINE S5(X, Y)
      REAL X(100), Y(100)
      CALL S6(X, Y)
      END

      SUBROUTINE S4(X, Y)
      REAL X(100), Y(100)
      CALL S5(X, Y)
      END

      SUBROUTINE S3(X, Y)
      REAL X(100), Y(100)
      CALL S4(X, Y)
      END

      SUBROUTINE S2(X, Y)
      REAL X(100), Y(100)
      CALL S3(X, Y)
      END

      SUBROUTINE S1(X, Y)
      REAL X(100), Y(100)
      CALL S2(X, Y)
      END

      PROGRAM CHAIN
      REAL A(100)
      DO 5 I = 1, 100
        A(I) = FLOAT(I)
    5 CONTINUE
      CALL S1(A, A)
      PRINT *, A(1), A(50), A(99)
      END
