      PROGRAM IPPRIV
      REAL A(20000)
      DO I = 1, 20000
        CALL F(X, I)
        S = 0.0
        DO J = 1, 50
          S = S + X
        ENDDO
        A(I) = S
      ENDDO
      NBAD = 0
      DO I = 1, 20000
        IF (A(I) .NE. 50.0 * FLOAT(I)) NBAD = NBAD + 1
      ENDDO
      PRINT *, NBAD
      END

      SUBROUTINE F(Z, K)
      Z = FLOAT(K)
      END
